"""The skyline audit engine (Definition 2, executed as one batched pass).

Auditing a release against a skyline ``{(B_1, t_1), ..., (B_p, t_p)}`` with
the per-adversary attack costs ``p`` full kernel estimations - the very cost
Figure 4(b) shows dominating the pipeline.  The engine removes the redundancy:

* **priors** for every skyline bandwidth are contractions on one fitted
  :class:`~repro.knowledge.prior.BatchedKernelPriorEstimator`, which holds
  all bandwidth-independent work (distance matrices, QI de-duplication, the
  count-tensor factorisation) - the caller's, when it passes one;
* **posteriors and risks** go through the same risk kernel
  (:func:`~repro.privacy.disclosure.member_risks`, via
  :func:`~repro.privacy.disclosure.attack_result`) as the single-adversary
  attack, so the reported risks are numerically identical to looping
  :class:`~repro.privacy.disclosure.BackgroundKnowledgeAttack`; the kernel's
  fixed row tiles bound each pass's working set on any table;
* the per-adversary posterior passes are independent, so they run on the
  shared thread pool of :mod:`repro.knowledge.parallel` (sized by
  ``config.jobs``; risks are bitwise identical at any thread count).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import AuditError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.parallel import resolve_jobs, run_tasks
from repro.knowledge.prior import BatchedKernelPriorEstimator, PriorBeliefs
from repro.obs.tracing import Span, current_tracer
from repro.privacy.disclosure import (
    AttackResult,
    attack_result,
    count_vulnerable_tuples,
    max_risk,
    member_risks,
)
from repro.privacy.measures import DistanceMeasure, sensitive_distance_measure

_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SkylineAdversary:
    """One skyline point: the adversary ``Adv(B)`` and their budget ``t``."""

    bandwidth: Bandwidth
    t: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise AuditError("a skyline threshold t must lie in [0, 1]")

    @property
    def scalar_b(self) -> float:
        """The uniform bandwidth value, or ``nan`` for per-attribute bandwidths."""
        distinct = {value for _, value in self.bandwidth.items()}
        return float(next(iter(distinct))) if len(distinct) == 1 else float("nan")

    def describe(self) -> str:
        """Human-readable point description, e.g. ``"(b=0.3, t=0.2)"``."""
        return f"({self.bandwidth.describe()}, t={self.t:g})"


@dataclass
class SkylineAuditEntry:
    """The audit outcome for one skyline point."""

    adversary: SkylineAdversary
    attack: AttackResult

    @property
    def satisfied(self) -> bool:
        """Whether the release honours this point's budget."""
        return self.attack.worst_case_risk <= self.adversary.t + _TOLERANCE

    @property
    def margin(self) -> float:
        """Budget headroom ``t - worst_case_risk`` (negative when breached)."""
        return self.adversary.t - self.attack.worst_case_risk

    def as_dict(self) -> dict[str, Any]:
        """Flat, JSON-able summary of this entry."""
        return {
            "adversary": self.adversary.describe(),
            "b": None if np.isnan(self.adversary.scalar_b) else self.adversary.scalar_b,
            "t": self.adversary.t,
            "worst_case_risk": self.attack.worst_case_risk,
            "vulnerable_tuples": self.attack.vulnerable_tuples,
            "vulnerability_rate": self.attack.vulnerability_rate(),
            "satisfied": self.satisfied,
            "margin": self.margin,
        }


@dataclass
class SkylineAuditReport:
    """Everything one skyline audit produces."""

    entries: list[SkylineAuditEntry]
    n_rows: int
    n_groups: int
    timings: dict[str, float] = field(default_factory=dict)
    delta: dict[str, Any] | None = None  # set by incremental re-audits

    @property
    def satisfied(self) -> bool:
        """Whether the release honours *every* skyline point (Definition 2)."""
        return all(entry.satisfied for entry in self.entries)

    def worst_entry(self) -> SkylineAuditEntry:
        """The skyline point with the least headroom (the binding constraint)."""
        return min(self.entries, key=lambda entry: entry.margin)

    def summary(self) -> dict[str, Any]:
        """Flat, JSON-able summary of the whole audit."""
        return {
            "rows": self.n_rows,
            "groups": self.n_groups,
            "skyline_size": len(self.entries),
            "satisfied": self.satisfied,
            "worst_margin": self.worst_entry().margin,
            "prepare_seconds": self.timings.get("prepare_seconds", 0.0),
            "audit_seconds": self.timings.get("audit_seconds", 0.0),
            "adversaries": [entry.as_dict() for entry in self.entries],
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"skyline audit: {self.n_groups} groups over {self.n_rows} tuples, "
            f"{len(self.entries)} adversaries "
            f"({'SATISFIED' if self.satisfied else 'BREACHED'})",
        ]
        for entry in self.entries:
            verdict = "ok" if entry.satisfied else "BREACH"
            lines.append(
                f"  Adv{entry.adversary.describe()}: worst-case gain "
                f"{entry.attack.worst_case_risk:.4f} (margin {entry.margin:+.4f}), "
                f"{entry.attack.vulnerable_tuples} vulnerable tuples [{verdict}]"
            )
        lines.append(
            "timings: "
            + ", ".join(f"{name}={value:.3f}s" for name, value in self.timings.items())
        )
        return "\n".join(lines)


def _normalise_skyline(
    table: MicrodataTable, skyline: Iterable[tuple[float | Bandwidth, float]]
) -> list[SkylineAdversary]:
    points = []
    for b, t in skyline:
        bandwidth = (
            b if isinstance(b, Bandwidth)
            else Bandwidth.uniform(table.quasi_identifier_names, float(b))
        )
        missing = [name for name in table.quasi_identifier_names if name not in bandwidth]
        if missing:
            raise AuditError(f"skyline bandwidth does not cover attributes {missing}")
        points.append(SkylineAdversary(bandwidth=bandwidth, t=float(t)))
    if not points:
        raise AuditError("a skyline audit requires at least one (B, t) point")
    return points


class SkylineAuditEngine:
    """Audit releases of one table against a fixed skyline of adversaries.

    Parameters
    ----------
    table:
        The original microdata table (the adversary model assumes membership
        and QI values are known).
    skyline:
        ``(B_i, t_i)`` pairs; ``B_i`` is a scalar (uniform across QI
        attributes) or a full :class:`~repro.knowledge.bandwidth.Bandwidth`.
    config:
        The :class:`~repro.knowledge.backend.EstimatorConfig` of the prior
        estimation (kernel - Epanechnikov by default, as in the paper - and
        cell budget) and of the per-adversary posterior passes,
        which share its ``jobs`` threads with the estimation backend
        (``None`` resolves to ``REPRO_JOBS`` / ``os.cpu_count()``; priors
        and risks are bitwise identical at any thread count).
    method:
        Posterior inference, ``"omega"`` (default) or ``"exact"``.
    measure:
        Distance measure; defaults to the paper's smoothed-JS measure,
        smoothing with the config's kernel like the (B,t) models do.
    priors:
        Optional precomputed priors aligned with ``skyline`` (``None`` entries
        are estimated).  Each given prior must cover this table: an
        ``(n_rows, m)`` matrix.
    estimator:
        Optional :class:`~repro.knowledge.prior.BatchedKernelPriorEstimator`
        already fitted on this very ``table`` object with the config's
        kernel; the missing priors are contractions on it.  Without one the
        engine fits its own on first use.  This is how
        :class:`~repro.api.session.Session` shares its cached priors and its
        one fit per kernel.

    One engine may audit many releases (each :meth:`audit` call takes its own
    ``groups``); the priors are estimated once, on first use.  A prior or an
    estimator of another table is refused here, not at the first audit.
    """

    def __init__(
        self,
        table: MicrodataTable,
        skyline: Iterable[tuple[float | Bandwidth, float]],
        *,
        config: EstimatorConfig | None = None,
        method: str = "omega",
        measure: DistanceMeasure | None = None,
        priors: Sequence[PriorBeliefs | None] | None = None,
        estimator: BatchedKernelPriorEstimator | None = None,
    ):
        if method not in {"omega", "exact"}:
            raise AuditError("method must be 'omega' or 'exact'")
        from repro.data.source import as_table

        self.table = as_table(table)
        table = self.table
        self.adversaries = _normalise_skyline(table, skyline)
        self.config = config if config is not None else EstimatorConfig()
        self.method = method
        if measure is None:
            measure = sensitive_distance_measure(table, kernel=self.config.kernel)
        self.measure = measure
        priors = list(priors) if priors is not None else [None] * len(self.adversaries)
        if len(priors) != len(self.adversaries):
            raise AuditError("priors must align one-to-one with the skyline points")
        expected = (table.n_rows, table.sensitive_domain().size)
        for prior in filter(None, priors):
            shape = (prior.n_rows, prior.n_sensitive_values)
            if shape != expected:
                raise AuditError(
                    f"a given prior has shape {shape}, but this "
                    f"table needs {expected} (n_rows, sensitive values)"
                )
        if estimator is not None:
            if estimator.backend.table is not table:
                raise AuditError("the estimator must be fitted on this engine's table")
            if estimator.config.kernel != self.config.kernel:
                raise AuditError(
                    f"the estimator's kernel {estimator.config.kernel!r} differs "
                    f"from the config's {self.config.kernel!r}"
                )
        self._priors: list[PriorBeliefs | None] = priors
        self._estimator = estimator
        self.prepare_seconds = 0.0

    # -- preparation -----------------------------------------------------------------
    @property
    def prepared(self) -> bool:
        """Whether every adversary's prior is available."""
        return all(prior is not None for prior in self._priors)

    def prepare(self) -> "SkylineAuditEngine":
        """Contract every missing prior in one batched pass (idempotent)."""
        missing = [i for i, prior in enumerate(self._priors) if prior is None]
        if not missing:
            return self
        start = time.perf_counter()
        with current_tracer().span("engine.prepare", adversaries=len(missing)):
            estimator = self._estimator
            if estimator is None:
                estimator = BatchedKernelPriorEstimator(self.config).fit(self.table)
            estimated = estimator.prior_for_table(
                [self.adversaries[i].bandwidth for i in missing]
            )
            for index, prior in zip(missing, estimated):
                self._priors[index] = prior
        self.prepare_seconds += time.perf_counter() - start
        return self

    @property
    def priors(self) -> list[PriorBeliefs]:
        """The per-adversary priors (estimating them on first access)."""
        self.prepare()
        return list(self._priors)

    # -- auditing --------------------------------------------------------------------
    def _per_adversary(self, attack: Callable[[int, Span], Any]) -> list[Any]:
        """Run ``attack(index, span)`` for every skyline adversary, in order.

        The passes are independent, so they share the pool of
        :func:`~repro.knowledge.parallel.run_tasks` at ``config.jobs``
        threads (``jobs=1`` is the inline loop).  Callers :meth:`prepare`
        first, so no adversary task ever submits pool work of its own.  Each
        ``engine.adversary`` span attaches to the caller's open span, so
        concurrent audits keep their trees apart, and the caller's tracer is
        the pool thread's ambient one, so the risk kernel's spans nest under
        their adversary.
        """
        tracer = current_tracer()
        parent = tracer.current()

        def task(index: int) -> Any:
            adversary = self.adversaries[index]
            with tracer.activate(), tracer.attach(parent), tracer.span(
                "engine.adversary", b=adversary.scalar_b, t=adversary.t
            ) as span:
                return attack(index, span)

        return run_tasks(
            [lambda index=index: task(index) for index in range(len(self.adversaries))],
            resolve_jobs(self.config.jobs),
        )

    def audit(self, groups: Sequence[np.ndarray]) -> SkylineAuditReport:
        """Audit one release (a list of group index arrays) against the skyline."""
        self.prepare()
        start = time.perf_counter()
        sensitive_codes = self.table.sensitive_codes()
        group_list = [np.asarray(group, dtype=np.int64) for group in groups]

        def attack(index: int, span: Span) -> AttackResult:
            adversary = self.adversaries[index]
            return attack_result(
                self._priors[index], sensitive_codes, group_list, self.measure,
                adversary_b=adversary.scalar_b, threshold=adversary.t,
                method=self.method,
            )

        attacks = self._per_adversary(attack)
        entries = [
            SkylineAuditEntry(adversary=adversary, attack=result)
            for adversary, result in zip(self.adversaries, attacks)
        ]
        timings = {
            "prepare_seconds": self.prepare_seconds,
            "audit_seconds": time.perf_counter() - start,
        }
        return SkylineAuditReport(
            entries=entries,
            n_rows=self.table.n_rows,
            n_groups=sum(1 for group in group_list if group.size),
            timings=timings,
        )

    def audit_incremental(
        self,
        groups: Sequence[np.ndarray],
        *,
        previous_groups: Sequence[np.ndarray],
        previous_report: SkylineAuditReport,
        dirty_rows: np.ndarray | Sequence[np.ndarray],
        previous_of: np.ndarray,
    ) -> SkylineAuditReport:
        """Re-audit a release after a stream batch, touching only changed groups.

        The engine's dirty-group mode for streams: only some rows are *dirty*
        - appended, corrected, or with a changed prior.  Per adversary, a
        group's member risks are copied verbatim from ``previous_report``
        when its previous-index image appeared in ``previous_groups`` and
        none of its members is dirty for that adversary; every other group
        goes through the same posterior pass as :meth:`audit`, so the
        assembled risks are numerically identical to a full re-audit.

        Parameters
        ----------
        groups:
            The current release (its groups must cover every current row).
        previous_groups:
            The previous release's groups (sorted index arrays, as released,
            in the *previous* table's index space).
        previous_report:
            The report :meth:`audit` / :meth:`audit_incremental` produced for
            ``previous_groups``; its per-tuple risks are the reuse source.
        dirty_rows:
            One boolean mask over the current table's rows - or one mask per
            skyline adversary - marking rows whose risk may have changed.
            Rows without a previous counterpart must always be marked dirty.
        previous_of:
            Int array mapping every current row to its position in the
            previous table (``-1`` for rows with no counterpart, e.g.
            appended rows) - the one description of an append, retraction
            or correction, so clean groups reuse their risks across all
            three.
        """
        self.prepare()
        start = time.perf_counter()
        n_rows = self.table.n_rows
        sensitive_codes = self.table.sensitive_codes()
        group_list = [np.asarray(group, dtype=np.int64) for group in groups]
        if len(previous_report.entries) != len(self.adversaries):
            raise AuditError(
                "previous report does not cover the same skyline as this engine"
            )
        if isinstance(dirty_rows, np.ndarray):
            masks = [dirty_rows] * len(self.adversaries)
        else:
            masks = list(dirty_rows)
        if len(masks) != len(self.adversaries):
            raise AuditError("dirty_rows must align one-to-one with the skyline points")
        masks = [np.asarray(mask, dtype=bool) for mask in masks]
        for mask in masks:
            if mask.shape != (n_rows,):
                raise AuditError("each dirty-row mask must cover every current row")
        n_previous = previous_report.n_rows
        previous_of = np.asarray(previous_of, dtype=np.int64)
        if previous_of.shape != (n_rows,):
            raise AuditError("previous_of must map every current row")
        if previous_of.size and previous_of.max() >= n_previous:
            raise AuditError("previous_of points beyond the previous report's rows")
        surviving = previous_of >= 0
        previous_keys = {np.asarray(g, dtype=np.int64).tobytes() for g in previous_groups}

        def attack(index: int, span: Span) -> tuple[AttackResult, int]:
            adversary = self.adversaries[index]
            mask = masks[index]
            prior = self._priors[index]
            risks = np.zeros(n_rows, dtype=np.float64)
            risks[surviving] = previous_report.entries[index].attack.risks[
                previous_of[surviving]
            ]
            stale = [
                group
                for group in group_list
                if mask[group].any()
                or not surviving[group].all()
                or previous_of[group].tobytes() not in previous_keys
            ]
            if stale:
                members = np.concatenate(stale)
                offsets = np.cumsum(
                    [0] + [group.size for group in stale[:-1]], dtype=np.int64
                )
                risks[members] = member_risks(
                    prior, sensitive_codes, members, offsets, self.measure,
                    method=self.method,
                )
            span.annotate(recomputed_groups=len(stale))
            return AttackResult(
                adversary_b=adversary.scalar_b,
                threshold=adversary.t,
                risks=risks,
                vulnerable_tuples=count_vulnerable_tuples(risks, adversary.t),
                worst_case_risk=max_risk(risks),
            ), len(stale)

        outcomes = self._per_adversary(attack)
        entries = [
            SkylineAuditEntry(adversary=adversary, attack=result)
            for adversary, (result, _) in zip(self.adversaries, outcomes)
        ]
        recomputed = [stale for _, stale in outcomes]
        timings = {
            "prepare_seconds": self.prepare_seconds,
            "audit_seconds": time.perf_counter() - start,
        }
        return SkylineAuditReport(
            entries=entries,
            n_rows=n_rows,
            n_groups=sum(1 for group in group_list if group.size),
            timings=timings,
            delta={
                "recomputed_groups": recomputed,
                "total_groups": len(group_list),
            },
        )


def audit_skyline(
    table: MicrodataTable,
    groups: Sequence[np.ndarray],
    skyline: Iterable[tuple[float | Bandwidth, float]],
    **engine_options: Any,
) -> SkylineAuditReport:
    """One-call helper: build a :class:`SkylineAuditEngine` and audit ``groups``."""
    return SkylineAuditEngine(table, skyline, **engine_options).audit(groups)
