"""The incremental publication engine for full-lifecycle microdata streams.

A production publisher does not receive its table once: rows keep arriving,
rows are *retracted* (GDPR-style erasure) and rows are *corrected* (late
fixes).  Re-running the whole estimate -> partition -> audit pipeline per
mutation throws away almost everything the previous run computed.  The
paper's risk-continuity result (worst-case disclosure risk varies
continuously with the background-knowledge bandwidth ``B``, Section V-C)
has an exact finite-sample counterpart that this engine exploits: with the
paper's compact-support kernels, changing rows changes the estimated prior
belief only at quasi-identifier combinations within kernel range of a
changed row, so a previously satisfied release is only *threatened where
counts actually changed*.

:class:`IncrementalPublisher` holds a versioned release.  Every mutation -
an :meth:`~IncrementalPublisher.append`, :meth:`~IncrementalPublisher.delete`
or :meth:`~IncrementalPublisher.update` batch, and each operation of a
:meth:`~IncrementalPublisher.publish_coalesced` tick - is described by
its removed positions, corrected positions with their replacement rows, or
appended rows, and publishing it:

1. folds the mutation into the factored kernel-prior state as **exact**
   count-tensor deltas (additive for appends, negative for retractions,
   paired for corrections - no ``O(n^2 d)`` re-sweep; see
   :mod:`repro.knowledge.backend`);
2. computes the exact set of **dirty rows** - rows without a previous
   counterpart plus rows whose prior distribution or sensitive code changed
   for some configured adversary (a bitwise comparison, so no false "clean"
   verdicts);
3. pulls removed and corrected rows out of their leaves, routes appended and
   corrected rows down the recorded Mondrian split tree to their leaf groups
   (a corrected QI value may cross a split boundary), re-checks only dirty
   leaves (one batched ``is_satisfied_batch`` call, reusing the (B,t)
   model's surviving - and, after removals, index-remapped - risk memos),
   locally re-splits leaves that grew and merges-up/rebuilds regions around
   leaves that now violate the requirement (or emptied entirely) - every
   untouched subtree is reused verbatim;
4. re-audits the release in the skyline engine's dirty-group mode, copying
   the risks of clean surviving groups from the previously published
   version's report through the row remap.

Steps 1-3 run once per operation; step 4 runs once per publication.  A
single mutation is a tick of one operation; a
:meth:`~IncrementalPublisher.publish_coalesced` tick advances the table,
priors and partition through each of its operations in turn, composes their
row maps into one map from the published release onto the tick's result,
and audits that result once against the previously published version.  A
group's risks depend only on its members, their sensitive codes and their
prior rows, and the risk kernel gives a row the same bits whatever else
shares its tile, so a risk copied from the published version is bitwise the
one a re-computation would give.  A tick's release, audit risks and resume
state are therefore bitwise identical to publishing its operations one
version at a time - coalescing only drops the intermediate versions and
their audits.

Deferred maintenance - rows joining grown groups below the
``refine_factor`` trigger, retracted rows shrinking groups, corrected rows
re-routed in place - accumulates **drift**; once it reaches
``compact_drift`` of the current table the next version publishes through a
full-refine **compaction** (a fresh partition; priors and audits stay
incremental) and the drift resets.

The published groups therefore always satisfy the privacy requirement under
priors estimated from the *current* table, and the maintained audit risks are
numerically identical to a from-scratch audit of the same release (the
equivalence the stream tests pin to ``<= 1e-12``).

The partition itself is maintained, not recomputed: it is a valid Mondrian
refinement lineage, generally *not* the same tree a from-scratch run on the
current table would cut (medians move with the data), which is the usual -
and here explicit, ``compact_drift``-bounded - trade-off of incremental
Mondrian publishing.

With ``store_path=...`` every version persists to a disk-backed
:class:`~repro.stream.store.ReleaseStore` and :meth:`IncrementalPublisher.resume`
reconstructs a publisher mid-stream (identical continuation, historical
version serving).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.anonymize.mondrian import MondrianAnonymizer
from repro.anonymize.partition import AnonymizedRelease
from repro.audit.engine import SkylineAuditEngine, SkylineAuditReport
from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError, DataError, KnowledgeError, StreamError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import BatchedKernelPriorEstimator, PriorBeliefs
from repro.obs.tracing import Tracer
from repro.privacy.measures import (
    DistanceMeasure,
    SmoothedJSDivergence,
    sensitive_distance_measure,
)
from repro.privacy.models import BTPrivacy, CompositeModel, KAnonymity, PrivacyModel
from repro.stream.store import ReleaseStore, StreamDelta, StreamVersion, VersionCache
from repro.stream.tree import PartitionTree

#: The mutation kinds :meth:`IncrementalPublisher.publish_coalesced` accepts.
OPERATION_KINDS = ("append", "delete", "update")

#: The :class:`~repro.stream.store.StreamDelta` row count of each kind.
_COUNT_FIELDS = {"append": "appended_rows", "delete": "deleted_rows", "update": "updated_rows"}

#: The :class:`~repro.stream.store.StreamDelta` counters a tick sums over its operations.
_SUMMED_COUNTERS = (
    *_COUNT_FIELDS.values(), "rechecked_leaves", "refined_leaves", "rebuilt_regions"
)


@dataclasses.dataclass(frozen=True)
class _Mutation:
    """One validated mutation of the current table.

    ``positions`` are the sorted, distinct rows that leave their leaves -
    retracted (``delete``) or corrected in place (``update``); ``columns``
    holds the replacement (``update``) or appended (``append``) rows by
    attribute.
    """

    kind: str
    size: int
    positions: np.ndarray | None = None
    columns: Mapping[str, Sequence] | None = None

    @property
    def counts(self) -> dict[str, int]:
        """The appended/deleted/updated row counts of the recorded delta."""
        return {name: self.size if kind == self.kind else 0 for kind, name in _COUNT_FIELDS.items()}

    def previous_of(self, n_previous: int) -> np.ndarray:
        """Each mutated-table row's position in the previous table (``-1``: none)."""
        if self.kind == "append":
            return np.concatenate(
                [np.arange(n_previous, dtype=np.int64), np.full(self.size, -1, dtype=np.int64)]
            )
        if self.kind == "delete":
            keep = np.ones(n_previous, dtype=bool)
            keep[self.positions] = False
            return np.flatnonzero(keep)
        return np.arange(n_previous, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class _Advance:
    """What one operation did to the maintained state (it audits nothing).

    ``previous_of`` maps the operation's table onto the one before it;
    ``untouched`` holds the ids of the partition leaves it found and left
    as they were (none after a fresh partition); ``counters`` are its
    :class:`StreamDelta` row counts and partition counters, ``timings`` its
    stage timings.
    """

    release: AnonymizedRelease
    previous_of: np.ndarray
    prior_map: dict[tuple, PriorBeliefs]
    untouched: frozenset[int]
    counters: dict[str, int | bool]
    timings: dict[str, float]


def _carried_measure(
    measure: DistanceMeasure | None, table: MicrodataTable, domain_changed: bool
) -> DistanceMeasure | None:
    """``measure`` carried onto a rebuilt ``table``.

    It is kept while the sensitive domain is unchanged.  A smoothed-JS
    measure over a changed domain is rebuilt on the new domain with its own
    bandwidth and kernel; any other measure is kept as given.
    """
    if domain_changed and isinstance(measure, SmoothedJSDivergence):
        return sensitive_distance_measure(
            table, bandwidth=measure.bandwidth, kernel=measure.kernel
        )
    return measure


class IncrementalPublisher:
    """Publish a mutating microdata stream under one privacy requirement.

    Rows arrive (:meth:`append`), are retracted (:meth:`delete`) and are
    corrected in place (:meth:`update`), one batch per version or several
    per :meth:`publish_coalesced` tick.  Every mutation is described to the
    layers below by one row map, ``previous_of``: each current row's
    position in the previous table, or ``-1`` when it has none.

    Parameters
    ----------
    table:
        The seed table (version 0 is published from it by :meth:`publish`).
    model:
        The attribute-disclosure requirement (a
        :class:`~repro.privacy.models.PrivacyModel` instance; name resolution
        lives in :meth:`repro.api.session.Session.stream`).
    skyline:
        ``(B_i, t_i)`` audit adversaries.  Defaults to the ``(b, t)`` pairs of
        the model's (B,t) components; pass an empty list to skip auditing.
    k:
        Optional k-anonymity requirement conjoined with ``model`` (as the
        paper does against identity disclosure).
    config:
        The :class:`~repro.knowledge.backend.EstimatorConfig` of the prior
        estimator and the audit engine.  Its ``kernel`` and ``max_cells``
        are persisted in the stream state; ``jobs`` (``None`` resolves to
        ``REPRO_JOBS`` / ``os.cpu_count()``) is a runtime knob, deliberately
        *not* persisted: resuming a shard at a different thread count
        produces bitwise identical versions.
    method / split_strategy:
        Passed through to the audit engine and Mondrian.
    refine_factor:
        Utility/throughput dial for grown groups.  A group that satisfies the
        requirement after an append re-enters the (expensive) split search
        only once it holds at least ``refine_factor`` times the rows it had
        when the search last declared it unsplittable; until then the rows
        simply join the group.  ``1.0`` re-searches every grown group on every
        batch; the default amortises the search so a group is never more than
        ~``refine_factor`` times coarser than a fresh run would leave it.
        Privacy is unaffected - grown groups are always re-checked.
    compact_drift:
        Periodic full-refine compaction threshold.  Deferred maintenance
        (rows joining grown groups below the ``refine_factor`` trigger,
        retracted rows shrinking groups, corrected rows re-routed in place)
        accumulates *drift* - utility the maintained partition leaves on the
        table relative to a fresh run.  Once the accumulated drifted-row
        count reaches ``compact_drift`` times the current table size, the
        next batch is published through a full re-partition (priors and
        audits stay incremental), resetting the drift.  ``float("inf")``
        disables compaction.
    measure:
        Audit distance measure (defaults to the paper's smoothed-JS measure,
        smoothing with the config's kernel like the (B,t) models do).
    store_path:
        Optional directory for a disk-backed :class:`ReleaseStore`: every
        published version is persisted (JSON-lines lineage + one ``.npz``
        per release), and :meth:`resume` can reconstruct the publisher from
        the directory to continue the stream or serve historical versions.
    tracer:
        An :class:`~repro.obs.tracing.Tracer`.  Every publication runs under
        a root span (``publish.append``, ``publish.full``, ...) with one
        child span per stage, and the recorded ``StreamDelta.timings`` are
        *derived from those spans* - the span tree is the source of truth,
        the flat dict its byte-compatible projection.  Defaults to an
        always-on tracer (span overhead is gated at <= 5% of publish time in
        ``BENCH_stream.json``); pass ``Tracer(enabled=False)`` to disable
        tree retention - stage timings are then taken from detached timers,
        so published versions and lineage keep the exact same shape.

    Appended batches with values outside the seed domains force a full
    rebuild (codes, distance matrices and priors all shift); batches inside
    the domains take the incremental path.  The same holds for corrections
    that introduce values outside the current domains.
    """

    def __init__(
        self,
        table: MicrodataTable,
        model: PrivacyModel,
        *,
        skyline: Iterable[tuple[float | Bandwidth, float]] | None = None,
        k: int | None = None,
        config: EstimatorConfig | None = None,
        method: str = "omega",
        split_strategy: str = "widest",
        refine_factor: float = 1.5,
        compact_drift: float = 0.5,
        measure: DistanceMeasure | None = None,
        store_path: str | Path | None = None,
        version_cache: VersionCache | None = None,
        tracer: Tracer | None = None,
    ):
        if method not in {"omega", "exact"}:
            raise StreamError("method must be 'omega' or 'exact'")
        if not refine_factor >= 1.0:
            raise StreamError("refine_factor must be at least 1.0")
        if not compact_drift > 0.0:
            raise StreamError("compact_drift must be positive (inf disables compaction)")
        self.refine_factor = float(refine_factor)
        self.compact_drift = float(compact_drift)
        self._table = table
        self.model = model
        self.config = config if config is not None else EstimatorConfig()
        self.method = method
        self._k = k
        self._requirement: PrivacyModel = (
            CompositeModel([KAnonymity(k), model]) if k is not None else model
        )
        self._bt_components = [
            component
            for component in self._requirement.components()
            if isinstance(component, BTPrivacy)
        ]
        if skyline is None:
            points = [(component.b, component.t) for component in self._bt_components]
        else:
            points = list(skyline)
        self._points: list[tuple[Bandwidth, float]] = [
            (self._bandwidth(b), float(t)) for b, t in points
        ]
        self._measure = measure
        self._mondrian = MondrianAnonymizer(
            self._requirement, split_strategy=split_strategy
        )
        self._estimator = BatchedKernelPriorEstimator(config=self.config, incremental=True)
        self.split_strategy = split_strategy
        self.tracer = tracer if tracer is not None else Tracer()
        self.store = (
            ReleaseStore(path=store_path, schema=table.schema, version_cache=version_cache)
            if store_path is not None
            else ReleaseStore(version_cache=version_cache)
        )
        self._tree: PartitionTree | None = None
        self._audit_matrices: list[np.ndarray] = []
        self._drift_rows = 0
        # Set while a mutation is in flight and cleared when its version is
        # recorded: a raise mid-mutation (e.g. the documented
        # AnonymizationError when the whole table fails) leaves the
        # maintained state half-updated, so further publishing must refuse
        # loudly instead of silently emitting a wrong version.
        self._inconsistent = False

    # -- small helpers ----------------------------------------------------------------
    @contextlib.contextmanager
    def _publish_span(self, kind: str, **attributes: Any):
        """The root span of one publication, with the tracer made ambient.

        Activation lets instrumentation too deep to thread a tracer through
        (the prior backend's contractions, the audit engine's per-adversary
        loop) nest under this publication via
        :func:`repro.obs.tracing.current_tracer`.
        """
        with self.tracer.activate():
            with self.tracer.timed(f"publish.{kind}", **attributes) as span:
                yield span

    def _bandwidth(self, b: float | Bandwidth) -> Bandwidth:
        if isinstance(b, Bandwidth):
            return b
        return Bandwidth.uniform(self._table.quasi_identifier_names, float(b))

    @property
    def table(self) -> MicrodataTable:
        """The current (grown) table."""
        return self._table

    @property
    def latest(self) -> StreamVersion:
        """The most recently published version."""
        return self.store.latest()

    @property
    def skyline(self) -> list[tuple[Bandwidth, float]]:
        """The audit skyline (empty when auditing is disabled)."""
        return list(self._points)

    @property
    def drift_rows(self) -> int:
        """Deferred-maintenance drift accumulated since the last full refine."""
        return self._drift_rows

    @property
    def poisoned(self) -> bool:
        """Whether a previous batch failed mid-publication (state between versions).

        A poisoned publisher refuses further mutations (see
        :meth:`_begin_mutation`); its store still serves every published
        version, and a disk-backed stream continues via :meth:`resume`.
        """
        return self._inconsistent

    def close(self) -> None:
        """Release the store's publisher lock (see :meth:`ReleaseStore.close`)."""
        self.store.close()

    def describe(self) -> str:
        """One-line description of the configured stream."""
        skyline = "; ".join(f"({b.describe()}, t={t:g})" for b, t in self._points)
        return f"{self._requirement.describe()} | skyline [{skyline or 'none'}]"

    def _unique_bandwidths(self, audit: bool) -> list[Bandwidth]:
        seen: dict[tuple, Bandwidth] = {}
        for component in self._bt_components:
            bandwidth = self._bandwidth(component.b)
            seen.setdefault(bandwidth.items(), bandwidth)
        if audit:
            for bandwidth, _ in self._points:
                seen.setdefault(bandwidth.items(), bandwidth)
        return list(seen.values())

    def _priors_by_bandwidth(self, audit: bool) -> dict[tuple, PriorBeliefs]:
        """The current priors of the (B,t) components, and with ``audit`` of the skyline.

        The backend computes each matrix afresh per call, so an operation
        whose result is not audited skips the audit-only bandwidths.
        """
        bandwidths = self._unique_bandwidths(audit)
        if not bandwidths:
            return {}
        priors = self._estimator.prior_for_table(bandwidths)
        return {b.items(): p for b, p in zip(bandwidths, priors)}

    # -- resuming from a disk-backed store ---------------------------------------------
    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        schema,
        model: PrivacyModel,
        config: EstimatorConfig | None = None,
        measure: DistanceMeasure | None = None,
        version_cache: VersionCache | None = None,
        tracer: Tracer | None = None,
    ) -> "IncrementalPublisher":
        """Reconstruct a publisher from a disk-backed store and continue the stream.

        ``schema`` decodes the persisted tables; ``model`` must be (a fresh
        instance of) the attribute-disclosure model the stream was created
        with - the store records the full requirement's description and
        refuses a mismatch.  The returned publisher holds the loaded version
        lineage (so it can serve every historical release), the recorded
        split tree and accumulated compaction drift, and freshly refit
        priors; subsequent :meth:`append` / :meth:`delete` / :meth:`update`
        calls continue the stream where it stopped, producing versions
        identical to an uninterrupted publisher.  ``config`` supplies the
        runtime estimation settings (``jobs``); the stored
        ``kernel`` and ``max_cells`` replace its own.
        """
        store = ReleaseStore(path=path, schema=schema, version_cache=version_cache)
        if not len(store):
            raise StreamError(f"the release store at {path} holds no versions")
        if store.state is None:
            raise StreamError(
                f"the release store at {path} holds no publisher state (state.json)"
            )
        state = store.state
        table = store.latest().release.table
        try:
            skyline = [
                (Bandwidth({name: float(value) for name, value in items}), float(t))
                for items, t in state["skyline"]
            ]
            publisher = cls(
                table,
                model,
                skyline=skyline,
                k=state["k"],
                config=dataclasses.replace(
                    config if config is not None else EstimatorConfig(),
                    kernel=state["kernel"],
                    max_cells=int(state["max_cells"]),
                ),
                method=state["method"],
                split_strategy=state["split_strategy"],
                refine_factor=float(state["refine_factor"]),
                compact_drift=float(state["compact_drift"]),
                measure=measure,
                tracer=tracer,
            )
            recorded_model = state["model"]
            tree_payload = state["tree"]
            drift_rows = int(state["drift_rows"])
        except (KeyError, TypeError, ValueError, KnowledgeError) as error:
            raise StreamError(
                f"corrupt release store: state.json cannot be decoded ({error})"
            ) from None
        if publisher._requirement.describe() != recorded_model:
            raise StreamError(
                f"model mismatch: the store was published under {recorded_model!r}, "
                f"resume() was given {publisher._requirement.describe()!r}"
            )
        if tree_payload is None:
            raise StreamError("corrupt release store: state.json records no partition tree")
        tree = PartitionTree(PartitionTree.from_jsonable(tree_payload))
        # The recorded tree's leaves must be exactly the latest release's
        # groups: a crash between the lineage append and the state.json
        # replace leaves the two files one version apart, and continuing
        # from a stale tree would publish wrong (or out-of-range) groups.
        latest_groups = store.latest().release.groups
        leaves = tree.leaves()
        if len(leaves) != len(latest_groups) or not all(
            np.array_equal(leaf.indices, group)
            for leaf, group in zip(leaves, latest_groups)
        ):
            raise StreamError(
                f"the release store at {path} was interrupted mid-persist: "
                "state.json's partition tree does not match the latest "
                "version's groups, so the stream cannot be continued "
                "(historical versions remain servable via ReleaseStore)"
            )
        publisher.store = store
        publisher._tree = tree
        publisher._drift_rows = drift_rows
        # Rebuild the estimation state the incremental paths maintain: a
        # fresh fit on the current table (the maintained state it replaces
        # matches a from-scratch fit to round-off).
        prior_map = publisher._fit_priors(table, audit=True)
        publisher._audit_matrices = [
            prior_map[bandwidth.items()].matrix for bandwidth, _ in publisher._points
        ]
        return publisher

    # -- initial publication ----------------------------------------------------------
    def publish(self) -> StreamVersion:
        """Publish version 0 from the seed table."""
        if len(self.store):
            raise StreamError(
                "the stream is already published; use append()/delete()/update() "
                "(or IncrementalPublisher.resume to continue a stored stream)"
            )
        self._begin_mutation()
        with self._publish_span("full", rebuild=False) as publish_span:
            timings: dict[str, float] = {}
            release, prior_map = self._refit(self._table, audit=True, timings=timings)
            report, audit_recomputed, timings["audit_seconds"] = self._audit(
                prior_map, release, None, None
            )
            timings["total_seconds"] = time.perf_counter() - publish_span.start_s
            delta = StreamDelta(
                appended_rows=0,
                reused_groups=0,
                **self._fresh_shape(release),
                audit_recomputed_groups=audit_recomputed,
                timings=timings,
            )
            publish_span.annotate(version=0, rows=self._table.n_rows)
        return self._add_version(StreamVersion(0, release, report, delta))

    def _refit(
        self, table: MicrodataTable, *, audit: bool, timings: dict[str, float]
    ) -> tuple[AnonymizedRelease, dict[tuple, PriorBeliefs]]:
        """Fit the priors on ``table`` and partition it from scratch (no audit)."""
        self._table = table
        with self.tracer.timed("prior", rows=table.n_rows) as prior_span:
            prior_map = self._fit_priors(table, audit=audit)
        timings["prior_seconds"] = prior_span.duration_s
        release, timings["partition_seconds"] = self._fresh_partition(table)
        return release, prior_map

    def _fit_priors(self, table: MicrodataTable, *, audit: bool) -> dict[tuple, PriorBeliefs]:
        """Fit the priors on ``table`` from scratch and hand them to every consumer."""
        if self._measure is None and self._points:
            self._measure = sensitive_distance_measure(table, kernel=self.config.kernel)
        self._estimator.fit(table)
        prior_map = self._priors_by_bandwidth(audit)
        codes = table.sensitive_codes()
        domain_size = table.sensitive_domain().size
        for component in self._bt_components:
            component.set_priors(
                prior_map[self._bandwidth(component.b).items()], codes, domain_size
            )
        self._requirement.prepare(table)
        return prior_map

    def _fresh_partition(
        self, table: MicrodataTable, **attributes: Any
    ) -> tuple[AnonymizedRelease, float]:
        """Partition the whole table from scratch, leaving no deferred maintenance.

        Raises :class:`~repro.exceptions.AnonymizationError` when even the
        whole table fails the requirement, as a from-scratch run would.
        """
        with self.tracer.timed("partition", **attributes) as partition_span:
            self._tree = PartitionTree(self._mondrian.partition_tree(table, prepare=False))
            self._drift_rows = 0
            release = self._release(table)
        partition_span.annotate(groups=release.n_groups)
        return release, partition_span.duration_s

    @staticmethod
    def _fresh_shape(release: AnonymizedRelease) -> dict[str, int]:
        """The partition counters of a version whose partition was cut from scratch."""
        return {
            "rechecked_leaves": release.n_groups,
            "refined_leaves": 0,
            "rebuilt_regions": 1,
        }

    def _release(self, table: MicrodataTable) -> AnonymizedRelease:
        """The release the current partition tree's leaves define on ``table``."""
        groups = [leaf.indices for leaf in self._tree.leaves()]
        return AnonymizedRelease(
            table, groups, method=f"stream[{self._requirement.describe()}]"
        )

    def _add_version(self, version: StreamVersion) -> StreamVersion:
        """Record an unrecorded version as the store's next (persisting publisher state)."""
        recorded = self.store.add(
            dataclasses.replace(version, version=len(self.store)),
            # The state payload exists for disk-backed resume; serialising
            # the whole tree per version is wasted work on in-memory stores.
            state=self._state_payload() if self.store.path is not None else None,
        )
        self._inconsistent = False
        return recorded

    def _begin_mutation(self) -> None:
        """Refuse to mutate a publisher whose last batch failed mid-flight.

        The maintained state (table, priors, tree) updates in stages; when a
        batch raises after the first stage - most notably the documented
        :class:`~repro.exceptions.AnonymizationError` when even the whole
        table no longer satisfies the requirement - the publisher is left
        between versions.  The store still serves every published version,
        but further publishing requires a reconstructed publisher
        (:meth:`resume` from a disk-backed store, or a fresh one).
        """
        if self._inconsistent:
            raise StreamError(
                "a previous batch failed mid-publication and the maintained "
                "state is inconsistent; the store still serves published "
                "versions, but continue the stream from a reconstructed "
                "publisher (IncrementalPublisher.resume) instead"
            )
        self._inconsistent = True

    def _state_payload(self) -> dict[str, Any]:
        """Everything :meth:`resume` needs beyond the versions themselves."""
        return {
            "model": self._requirement.describe(),
            "skyline": [[list(b.items()), t] for b, t in self._points],
            "k": self._k,
            "kernel": self.config.kernel,
            "method": self.method,
            "split_strategy": self.split_strategy,
            "max_cells": self.config.max_cells,
            "refine_factor": self.refine_factor,
            "compact_drift": self.compact_drift,
            "drift_rows": self._drift_rows,
            "tree": PartitionTree.to_jsonable(self._tree.root) if self._tree else None,
        }

    def _engine(
        self, table: MicrodataTable, prior_map: dict[tuple, PriorBeliefs]
    ) -> SkylineAuditEngine:
        return SkylineAuditEngine(
            table,
            self._points,
            config=EstimatorConfig(kernel=self.config.kernel, jobs=self.config.jobs),
            method=self.method,
            measure=self._measure,
            priors=[prior_map[bandwidth.items()] for bandwidth, _ in self._points],
        )

    # -- validating mutations -----------------------------------------------------------
    def _require_published(self, action: str) -> None:
        if not len(self.store):
            raise StreamError(f"publish() the seed release before {action}")

    def _batch_columns(
        self, batch: MicrodataTable | Sequence[Mapping[str, Any]]
    ) -> dict[str, Sequence]:
        """An append/update batch's values, by attribute of the stream's schema."""
        schema = self._table.schema
        if isinstance(batch, MicrodataTable):
            if tuple(batch.schema.names) != tuple(schema.names):
                raise StreamError("batch schema does not match the stream's schema")
            return {name: batch.column(name) for name in schema.names}
        rows = list(batch)
        return {name: [row[name] for row in rows] for name in schema.names}

    def _positions(self, rows: Sequence[int] | np.ndarray, kind: str) -> np.ndarray:
        """Validated row positions of a delete/update batch.

        Positions must be integers - an integer array or integral Python
        values, never booleans - so a float is refused rather than truncated
        and a boolean mask is refused rather than read as positions 0 and 1.
        """
        if isinstance(rows, (list, tuple)) and any(
            isinstance(row, (bool, np.bool_)) for row in rows
        ):
            raise StreamError(f"{kind} positions must be integers, not booleans")
        positions = np.asarray(rows).reshape(-1)
        if positions.size == 0:
            raise StreamError(f"{kind} requires at least one row position")
        if positions.dtype.kind not in "iu":
            raise StreamError(f"{kind} positions must be integers, not {positions.dtype} values")
        positions = positions.astype(np.int64, copy=False)
        if positions.min() < 0 or positions.max() >= self._table.n_rows:
            raise StreamError(f"{kind} positions fall outside the current table")
        return positions

    def _append_mutation(
        self, batch: MicrodataTable | Sequence[Mapping[str, Any]]
    ) -> _Mutation:
        self._require_published("appending batches")
        columns = self._batch_columns(batch)
        size = len(next(iter(columns.values())))
        if size == 0:
            raise StreamError("an append batch requires at least one row")
        return _Mutation("append", size, columns=columns)

    def _delete_mutation(self, rows: Sequence[int] | np.ndarray) -> _Mutation:
        self._require_published("deleting rows")
        removed = np.unique(self._positions(rows, "delete"))
        if removed.size >= self._table.n_rows:
            raise StreamError("cannot delete every remaining row of the stream")
        return _Mutation("delete", int(removed.size), positions=removed)

    def _update_mutation(
        self,
        rows: Sequence[int] | np.ndarray,
        batch: MicrodataTable | Sequence[Mapping[str, Any]],
    ) -> _Mutation:
        self._require_published("updating rows")
        positions = self._positions(rows, "update")
        if np.unique(positions).size != positions.size:
            raise StreamError("update positions must be distinct")
        columns = self._batch_columns(batch)
        if any(len(column) != positions.size for column in columns.values()):
            raise StreamError("update values must align one-to-one with the updated rows")
        order = np.argsort(positions)
        return _Mutation(
            "update",
            int(positions.size),
            positions=positions[order],
            columns={name: [column[int(i)] for i in order] for name, column in columns.items()},
        )

    def _mutation(self, kind: str, payload: Any) -> _Mutation:
        """Validate one ``(kind, payload)`` operation of a coalesced tick."""
        if kind == "append":
            return self._append_mutation(payload)
        if kind == "delete":
            return self._delete_mutation(payload)
        if kind == "update":
            rows, batch = payload
            return self._update_mutation(rows, batch)
        raise StreamError(
            f"unknown stream operation {kind!r}; expected one of {OPERATION_KINDS}"
        )

    # -- the mutation step ------------------------------------------------------------
    def _mutated_table(
        self, mutation: _Mutation, previous_of: np.ndarray
    ) -> tuple[MicrodataTable, bool]:
        """The table after ``mutation``, and whether its domains changed."""
        if mutation.kind == "delete":
            return self._table.select(previous_of), False
        try:
            if mutation.kind == "append":
                return self._table.extend(mutation.columns), False
            return self._table.replace_rows(mutation.positions, mutation.columns), False
        except DataError:
            # A value outside the current domains: codes shift, full rebuild.
            return self._rebuilt_table(mutation), True

    def _rebuilt_table(self, mutation: _Mutation) -> MicrodataTable:
        """The mutated table rebuilt from raw columns, with fresh domains."""
        schema = self._table.schema
        columns = {}
        for name in schema.names:
            fresh = np.asarray(
                mutation.columns[name],
                dtype=np.float64 if schema[name].is_numeric else object,
            )
            column = self._table.column(name)
            if mutation.kind == "append":
                column = np.concatenate([column, fresh])
            else:
                column = np.array(column, copy=True)
                column[mutation.positions] = fresh
            columns[name] = column
        return MicrodataTable(schema, columns)

    def _component_dirty(
        self,
        component: PrivacyModel,
        table: MicrodataTable,
        previous_of: np.ndarray,
        prior_map: dict[tuple, PriorBeliefs],
    ) -> np.ndarray:
        """Dirty-row mask of one requirement component (True = risk may change).

        ``previous_of`` maps every current row to its previous position
        (``-1`` for rows with no counterpart).  (B,t) components are
        refreshed with the publisher's re-estimated priors, remapping their
        risk memos; every other model declares its own invalidation
        semantics through
        :meth:`~repro.privacy.models.PrivacyModel.stream_replace`
        (conservative all-dirty by default).
        """
        if isinstance(component, BTPrivacy):
            priors = prior_map[self._bandwidth(component.b).items()]
            return component.update_priors(
                priors,
                table.sensitive_codes(),
                table.sensitive_domain().size,
                previous_of=previous_of,
            )
        return component.stream_replace(table, previous_of)

    def _compaction_due(self) -> bool:
        """Whether accumulated drift warrants a full-refine compaction."""
        return self._drift_rows >= self.compact_drift * self._table.n_rows

    def _step(self, mutation: _Mutation, *, audit: bool) -> _Advance:
        """Advance the table, the priors and the partition by ``mutation``.

        The one pipeline behind every append, delete, update and coalesced
        tick operation: build the mutated table (a domain change takes the
        full-rebuild path), fold the mutation into the prior state, find the
        dirty rows, then either compact or maintain the partition locally.
        The kinds differ only in data: the backend delta, the component
        hook, the drift accounting, and which rows leave their leaves and
        which are routed.  Nothing is audited here; with ``audit`` the
        skyline's priors are computed too, for the publication's one audit.
        """
        with self.tracer.timed("table") as table_span:
            previous_table = self._table
            previous_of = mutation.previous_of(previous_table.n_rows)
            table, rebuild = self._mutated_table(mutation, previous_of)
        timings = {"table_seconds": table_span.duration_s}
        if rebuild:
            # Codes shift: every code-indexed artefact is discarded, and each
            # distance measure is carried onto the new sensitive domain.
            self._estimator = BatchedKernelPriorEstimator(config=self.config, incremental=True)
            domain_changed = not np.array_equal(
                previous_table.sensitive_domain().values, table.sensitive_domain().values
            )
            self._measure = _carried_measure(self._measure, table, domain_changed)
            for component in self._bt_components:
                component.measure = _carried_measure(component.measure, table, domain_changed)
            release, prior_map = self._refit(table, audit=audit, timings=timings)
            counters = dict(mutation.counts, **self._fresh_shape(release), rebuild=True)
            return _Advance(release, previous_of, prior_map, frozenset(), counters, timings)

        # 1. Fold the mutation into the factored prior state; find dirty rows.
        with self.tracer.timed("prior", rows=table.n_rows) as prior_span:
            if mutation.kind == "append":
                self._estimator.append_rows(table)
            elif mutation.kind == "delete":
                self._estimator.remove_rows(table, mutation.positions)
            else:
                self._estimator.update_rows(table, mutation.positions)
            prior_map = self._priors_by_bandwidth(audit)
            dirty_model = previous_of < 0
            for component in self._requirement.components():
                dirty_model |= self._component_dirty(
                    component, table, previous_of, prior_map
                )
            self._table = table
            # Retracted rows shrink groups and corrected rows re-route in
            # place: the whole batch is drift.  Appended rows only drift
            # where they join a group without re-splitting it.
            if mutation.kind != "append":
                self._drift_rows += mutation.size
        timings["prior_seconds"] = prior_span.duration_s

        # 2-3. A full-refine compaction once drift is due, else local surgery.
        if self._compaction_due():
            release, timings["partition_seconds"] = self._fresh_partition(
                table, compacted=True
            )
            shape, untouched = dict(self._fresh_shape(release), compacted=True), frozenset()
        else:
            release, shape, untouched = self._maintain_partition(
                table, mutation, previous_table.n_rows, previous_of, dirty_model, timings
            )
        counters = dict(mutation.counts, **shape)
        return _Advance(release, previous_of, prior_map, untouched, counters, timings)

    def _audit(
        self,
        prior_map: dict[tuple, PriorBeliefs],
        release: AnonymizedRelease,
        previous: StreamVersion | None,
        previous_of: np.ndarray | None,
    ) -> tuple[SkylineAuditReport | None, list[int], float]:
        """Audit ``release`` once; incrementally when ``previous`` is given.

        Without ``previous`` every group is audited.  With it, clean groups
        keep their risks from ``previous``'s report: ``previous_of`` maps
        each current row to its position in ``previous``'s table (``-1``:
        none).  A current row is dirty for an adversary when it has no
        previous counterpart, its sensitive code changed, or its prior row
        for that adversary changed against the priors ``previous`` was
        audited under (a bitwise comparison, so no false "clean" verdicts).
        """
        with self.tracer.timed("audit", adversaries=len(self._points)) as span:
            report: SkylineAuditReport | None = None
            audit_recomputed: list[int] = []
            if self._points:
                priors_list = [
                    prior_map[bandwidth.items()] for bandwidth, _ in self._points
                ]
                engine = self._engine(self._table, prior_map)
                if previous is None:
                    report = engine.audit(release.groups)
                    audit_recomputed = [release.n_groups] * len(self._points)
                else:
                    report = engine.audit_incremental(
                        release.groups,
                        previous_groups=previous.release.groups,
                        previous_report=previous.report,
                        dirty_rows=self._dirty_masks(priors_list, previous, previous_of),
                        previous_of=previous_of,
                    )
                    audit_recomputed = list(report.delta["recomputed_groups"])
                self._audit_matrices = [priors.matrix for priors in priors_list]
                span.annotate(recomputed_groups=audit_recomputed)
        return report, audit_recomputed, span.duration_s

    def _dirty_masks(
        self,
        priors_list: list[PriorBeliefs],
        previous: StreamVersion,
        previous_of: np.ndarray,
    ) -> list[np.ndarray]:
        """Per adversary, the current rows whose risk may differ from ``previous``'s."""
        n_rows = self._table.n_rows
        surviving = previous_of >= 0
        survivors_previous = previous_of[surviving]
        previous_codes = previous.release.table.sensitive_codes()
        code_changed = np.ones(n_rows, dtype=bool)
        code_changed[surviving] = (
            self._table.sensitive_codes()[surviving] != previous_codes[survivors_previous]
        )
        masks = []
        for previous_matrix, priors in zip(self._audit_matrices, priors_list):
            mask = np.ones(n_rows, dtype=bool)
            mask[surviving] = (
                priors.matrix[surviving] != previous_matrix[survivors_previous]
            ).any(axis=1)
            masks.append(mask | code_changed)
        return masks

    def _maintain_partition(
        self,
        table: MicrodataTable,
        mutation: _Mutation,
        n_previous: int,
        previous_of: np.ndarray,
        dirty_model: np.ndarray,
        timings: dict[str, float],
    ) -> tuple[AnonymizedRelease, dict[str, int], frozenset[int]]:
        """Local surgery on the maintained partition for one mutation.

        Removed and corrected rows leave their leaves (leaf indices are
        remapped only then, so appends do no per-leaf work); appended and
        corrected rows are routed down the split tree.  Leaves that changed
        membership or hold a prior-dirty row are re-checked (one batched
        model call; empty members are unconditionally failing), regions
        around violated leaves merge up and rebuild, and leaves that received
        routed rows re-split or rejoin (the ``refine_factor`` amortisation).
        Records the route/recheck/repartition stage timings and returns the
        release, the delta's partition counters and the ids of the leaves it
        left untouched.
        """
        with self.tracer.timed("route") as route_span:
            leaves = self._tree.leaves()
            lost: set[int] = set()
            if mutation.kind != "append":
                current_of = np.full(n_previous, -1, dtype=np.int64)
                surviving = previous_of >= 0
                current_of[previous_of[surviving]] = np.flatnonzero(surviving)
                current_of[mutation.positions] = -1
                for leaf in leaves:
                    mapped = current_of[leaf.indices]
                    survivors = mapped >= 0
                    if not survivors.all():
                        lost.add(id(leaf))
                        mapped = mapped[survivors]
                    leaf.indices = mapped  # the old -> new map is monotone: still sorted
            arrivals = (
                mutation.positions
                if mutation.kind == "update"
                else np.flatnonzero(previous_of < 0)
            )
            routed = self._tree.route(table, arrivals)
            members: dict[int, np.ndarray] = {}
            dirty_leaves = []
            for leaf in leaves:
                addition = routed.get(id(leaf))
                if addition is not None:
                    members[id(leaf)] = np.sort(np.concatenate([leaf.indices, addition]))
                    dirty_leaves.append(leaf)
                else:
                    members[id(leaf)] = leaf.indices
                    if id(leaf) in lost or dirty_model[leaf.indices].any():
                        dirty_leaves.append(leaf)
        timings["route_seconds"] = route_span.duration_s

        with self.tracer.timed("recheck", leaves=len(dirty_leaves)) as recheck_span:
            checkable = [leaf for leaf in dirty_leaves if members[id(leaf)].size]
            verdicts = dict(
                zip(
                    (id(leaf) for leaf in checkable),
                    self._requirement.is_satisfied_batch(
                        [members[id(leaf)] for leaf in checkable]
                    ),
                )
            )
        timings["recheck_seconds"] = recheck_span.duration_s

        with self.tracer.timed("repartition") as repartition_span:
            failing = [
                leaf for leaf in dirty_leaves if not verdicts.get(id(leaf), False)
            ]
            rebuild_nodes = self._merge_up(failing, routed)
            under_rebuild = {
                id(leaf) for node in rebuild_nodes for leaf in node.leaves()
            }
            refine = []
            rejoined = []
            for leaf in dirty_leaves:
                if (
                    not verdicts.get(id(leaf), False)
                    or id(leaf) not in routed
                    or id(leaf) in under_rebuild
                ):
                    continue
                if members[id(leaf)].size >= self.refine_factor * leaf.searched_size:
                    refine.append(leaf)
                else:
                    # Satisfied and still close to its searched size: the routed
                    # rows simply join the group (deferred refinement).
                    rejoined.append(leaf)
            for leaf in rejoined:
                leaf.indices = members[id(leaf)]
            regions = [
                PartitionTree.current_members(node, routed) for node in rebuild_nodes
            ] + [members[id(leaf)] for leaf in refine]
            depths = [node.depth for node in rebuild_nodes] + [
                leaf.depth for leaf in refine
            ]
            if regions:
                subtrees = self._mondrian.partition_forest(table, regions, depths=depths)
                for node, subtree in zip(list(rebuild_nodes) + list(refine), subtrees):
                    self._tree.replace(node, subtree, reindex=False)
                self._tree.reindex()
            repartition_span.annotate(
                rebuilt_regions=len(rebuild_nodes), refined_leaves=len(refine)
            )
        timings["repartition_seconds"] = repartition_span.duration_s

        if mutation.kind == "append":
            # Appended rows joining grown groups in place are drift (removals
            # and corrections counted their whole batch up front).
            self._drift_rows += sum(int(routed[id(leaf)].size) for leaf in rejoined)
        touched = (
            under_rebuild
            | lost
            | {id(leaf) for leaf in refine}
            | {id(leaf) for leaf in rejoined}
        )
        return self._release(table), {
            "rechecked_leaves": len(dirty_leaves),
            "refined_leaves": len(refine),
            "rebuilt_regions": len(rebuild_nodes),
        }, frozenset(id(leaf) for leaf in leaves if id(leaf) not in touched)

    def _merge_up(self, failing: list, routed: dict[int, np.ndarray]) -> list:
        """Climb from each violated leaf to the nearest satisfiable region.

        Returns the (deduplicated, maximal) nodes whose regions must be
        re-partitioned.  Raises when even the whole table fails - exactly the
        condition under which a from-scratch run would refuse to release.
        """
        chosen: dict[int, Any] = {}
        for leaf in failing:
            node = leaf
            while True:
                link = self._tree.parent_of(node)
                if link is None:
                    region = PartitionTree.current_members(node, routed)
                    if not self._requirement.is_satisfied(region):
                        raise AnonymizationError(
                            "the whole table no longer satisfies the privacy "
                            "requirement after this batch; no release is possible"
                        )
                    chosen[id(node)] = node
                    break
                parent = link[0]
                region = PartitionTree.current_members(parent, routed)
                # An empty region (every member deleted or re-routed away)
                # cannot satisfy anything: keep climbing.
                if region.size and self._requirement.is_satisfied(region):
                    chosen[id(parent)] = parent
                    break
                node = parent
        # Keep only maximal regions (drop nodes nested under another choice).
        maximal = []
        for node in chosen.values():
            ancestor = node
            nested = False
            while (link := self._tree.parent_of(ancestor)) is not None:
                ancestor = link[0]
                if id(ancestor) in chosen:
                    nested = True
                    break
            if not nested:
                maximal.append(node)
        return maximal

    # -- the public mutations ---------------------------------------------------------
    def append(
        self, batch: MicrodataTable | Sequence[Mapping[str, Any]]
    ) -> StreamVersion:
        """Fold one batch of appended rows into the stream and publish a version.

        ``batch`` is either a :class:`~repro.data.table.MicrodataTable` with
        the stream's schema or a sequence of ``{attribute: value}`` rows.
        """
        return self._publish([("append", batch)])

    def delete(self, rows: Sequence[int] | np.ndarray) -> StreamVersion:
        """Retract rows (positions in the current table) and publish a version.

        The GDPR-style erasure path: the rows vanish from the maintained
        table, their counts leave the factored prior state as exact negative
        count-tensor deltas, the leaves that held them shrink in place, and
        regions whose shrunken groups no longer satisfy the requirement
        (e.g. fall below ``k``) merge up exactly like violated leaves after
        an append.  Positions must be integers: floats and boolean masks
        raise :class:`~repro.exceptions.StreamError`, as does deleting every
        remaining row (an empty table cannot be released); a deletion under
        which even the whole table fails the requirement raises
        :class:`~repro.exceptions.AnonymizationError`, as a from-scratch run
        would.
        """
        return self._publish([("delete", rows)])

    def update(
        self,
        rows: Sequence[int] | np.ndarray,
        batch: MicrodataTable | Sequence[Mapping[str, Any]],
    ) -> StreamVersion:
        """Correct rows in place (late-arriving fixes) and publish a version.

        ``rows`` are integer positions in the current table; ``batch``
        supplies the replacement rows (a
        :class:`~repro.data.table.MicrodataTable` with the stream's schema or
        a sequence of ``{attribute: value}`` rows) aligned one-to-one with
        ``rows``.  Corrections within the current domains are folded into the
        prior state as paired negative/positive count deltas, and the
        corrected rows are re-routed down the recorded split tree (a
        corrected QI value may cross a split boundary).  A correction
        introducing values outside the current domains forces a full
        rebuild, exactly like an out-of-domain append.
        """
        return self._publish([("update", (rows, batch))])

    def publish_coalesced(
        self, operations: Sequence[tuple[str, Any]]
    ) -> StreamVersion:
        """Apply one tick's worth of mutations and publish a *single* version.

        ``operations`` is a non-empty sequence of ``("append", batch)``,
        ``("delete", rows)`` and ``("update", (rows, batch))`` tuples - the
        unit the serving daemon's per-stream worker drains from its queue per
        tick.  Each operation advances the table, the priors and the
        partition through the same step as its single mutation; the tick's
        result is then audited once, against the previously published
        version through the operations' composed row map, and recorded as
        one version.  The published release, audit risks and resume state
        are *bitwise identical* to publishing the operations one version at
        a time; only the intermediate versions (and their audits) are
        dropped.  The recorded :class:`~repro.stream.store.StreamDelta`
        aggregates the whole tick, counts the folded batches in
        ``coalesced_operations``, and reports its reuse counters against
        the previously published version.

        Failure semantics match the sequential paths: once any operation of
        the tick has advanced the maintained state (an earlier step ran, or
        the failing operation itself got past validation), the publisher is
        poisoned - the store never saw any part of the tick, so the state is
        ahead of the published lineage.  A tick whose *first* operation fails
        pure validation leaves the publisher consistent.
        """
        operations = list(operations)
        if not operations:
            raise StreamError("a coalesced tick requires at least one operation")
        return self._publish(operations)

    def _publish(self, operations: list[tuple[str, Any]]) -> StreamVersion:
        """Advance through every operation, audit the result once, record one version.

        A tick of one operation publishes under a ``publish.<kind>`` root
        span; a longer tick under ``publish.coalesced``, with one
        ``publish.<kind>`` child per operation and the one ``audit`` span.
        """
        tick = len(operations) > 1
        if tick:
            self._require_published("coalescing mutations")
        mutation = self._mutation(*operations[0])
        if tick:
            span_kind, attributes = "coalesced", {"operations": len(operations)}
        else:
            span_kind = mutation.kind
            attributes = {_COUNT_FIELDS[mutation.kind]: mutation.size}
        with self._publish_span(span_kind, **attributes) as publish_span:
            previous = self.store.latest()
            self._begin_mutation()
            counters: collections.Counter = collections.Counter()
            timings: collections.Counter = collections.Counter()
            # Leaves of the published partition that no operation has
            # touched yet: the version's reused groups.
            carried: frozenset[int] | None = None
            # Each current row's position in the published table (-1: none).
            previous_of = np.arange(self._table.n_rows, dtype=np.int64)
            for index, operation in enumerate(operations):
                if index:
                    mutation = self._mutation(*operation)
                operation_span = (
                    self.tracer.timed(
                        f"publish.{mutation.kind}",
                        **{_COUNT_FIELDS[mutation.kind]: mutation.size},
                    )
                    if tick
                    else contextlib.nullcontext()
                )
                with operation_span:
                    advance = self._step(mutation, audit=index == len(operations) - 1)
                counters.update(advance.counters)
                timings.update(advance.timings)
                carried = advance.untouched if carried is None else carried & advance.untouched
                step_of = advance.previous_of
                previous_of = np.where(step_of >= 0, previous_of[np.maximum(step_of, 0)], -1)

            rebuild = counters["rebuild"] > 0
            report, audit_recomputed, timings["audit_seconds"] = self._audit(
                advance.prior_map, advance.release, None if rebuild else previous, previous_of
            )
            timings["total_seconds"] = time.perf_counter() - publish_span.start_s
            delta = StreamDelta(
                **{name: int(counters[name]) for name in _SUMMED_COUNTERS},
                reused_groups=len(carried),
                rebuild=rebuild,
                compacted=counters["compacted"] > 0,
                coalesced_operations=len(operations),
                audit_recomputed_groups=audit_recomputed,
                timings=dict(timings),
            )
            version = StreamVersion(previous.version + 1, advance.release, report, delta)
            publish_span.annotate(version=version.version)
        return self._add_version(version)
