"""The fluent pipeline: anonymize -> audit -> report in one composable run.

The paper's workflow is a pipeline - estimate the adversary's priors,
anonymize under a privacy requirement, then audit the disclosure risk and the
remaining utility.  :class:`Pipeline` expresses it as a chainable builder::

    bundle = (
        Pipeline(table)
        .model("bt", b=0.3, t=0.2)
        .with_k(4)
        .algorithm("mondrian")
        .audit(b_prime=0.3)
        .run()
    )
    bundle.release.n_groups
    bundle.attack.vulnerable_tuples
    bundle.utility["discernibility_metric"]
    bundle.timings["prepare_seconds"]

Model and algorithm names resolve through the registries of
:mod:`repro.api.registry`; a pipeline built from a :class:`Session` (or via
``session.pipeline()``) shares that session's preparation caches, so the
kernel fit - the dominant cost - runs at most once per kernel and each
prior's contraction at most once per ``(bandwidth, kernel)``, no matter how
many pipelines run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.anonymize.anonymizer import AnonymizationResult
from repro.obs.tracing import Tracer, current_tracer
from repro.anonymize.partition import AnonymizedRelease
from repro.api.session import Session
from repro.audit.engine import SkylineAuditReport
from repro.data.table import MicrodataTable
from repro.exceptions import PipelineError
from repro.privacy.disclosure import AttackResult
from repro.privacy.models import BTPrivacy, PrivacyModel
from repro.utility.metrics import utility_report


@dataclass
class ReleaseBundle:
    """Everything one pipeline run produces: release, audit, utility, timings."""

    release: AnonymizedRelease
    result: AnonymizationResult
    model_description: str
    attack: AttackResult | None = None
    skyline_audit: SkylineAuditReport | None = None
    utility: dict[str, float] | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """Flat summary dictionary (one sweep-table row)."""
        row: dict[str, Any] = {
            "model": self.model_description,
            "method": self.release.method,
            "n_groups": self.release.n_groups,
            "average_group_size": self.release.average_group_size(),
            "prepare_seconds": self.timings.get("prepare_seconds", 0.0),
            "partition_seconds": self.timings.get("partition_seconds", 0.0),
            "total_seconds": self.timings.get("total_seconds", 0.0),
        }
        if self.attack is not None:
            row["vulnerable_tuples"] = self.attack.vulnerable_tuples
            row["worst_case_risk"] = self.attack.worst_case_risk
        if self.skyline_audit is not None:
            row["skyline_satisfied"] = self.skyline_audit.satisfied
            row["skyline_worst_margin"] = self.skyline_audit.worst_entry().margin
        if self.utility is not None:
            row["discernibility_metric"] = self.utility["discernibility_metric"]
            row["global_certainty_penalty"] = self.utility["global_certainty_penalty"]
        return row

    def render(self) -> str:
        """Human-readable multi-line report of this bundle."""
        lines = [
            f"model: {self.model_description}",
            f"method: {self.release.method}",
            f"groups: {self.release.n_groups} (avg size {self.release.average_group_size():.1f})",
            "timings: "
            + ", ".join(f"{name}={value:.3f}s" for name, value in self.timings.items()),
        ]
        if self.attack is not None:
            lines.append(
                f"audit Adv(b'={self.attack.adversary_b:g}): "
                f"{self.attack.vulnerable_tuples} vulnerable tuples, "
                f"worst-case gain {self.attack.worst_case_risk:.4f} "
                f"(threshold {self.attack.threshold:g})"
            )
        if self.skyline_audit is not None:
            lines.append(self.skyline_audit.render())
        if self.utility is not None:
            lines.append(
                f"utility: DM={self.utility['discernibility_metric']:.0f} "
                f"GCP={self.utility['global_certainty_penalty']:.0f}"
            )
        return "\n".join(lines)


class Pipeline:
    """Chainable builder for one anonymize -> audit -> report run.

    Construct from a table - a :class:`~repro.data.table.MicrodataTable` or
    a chunked :class:`~repro.data.source.TableSource` (an ephemeral session is
    created, materialising sources through the codes-backed path) - or from an
    existing :class:`~repro.api.session.Session` to share preparation caches::

        Pipeline(table).model("bt", b=0.3, t=0.2).with_k(4).run()
        session.pipeline().model("t-closeness", t=0.15).run()
    """

    def __init__(self, table: "MicrodataTable | Any | None" = None, *, session: Session | None = None):
        if session is None:
            if table is None:
                raise PipelineError("Pipeline requires a table or a session")
            session = Session(table)
        elif table is not None and table is not session.table:
            raise PipelineError("Pipeline table and session table differ; pass only one")
        self.session = session
        self._model: str | PrivacyModel | None = None
        self._model_params: dict[str, Any] = {}
        self._k: int | None = None
        self._algorithm: str = "mondrian"
        self._algorithm_options: dict[str, Any] = {}
        self._audit: dict[str, Any] | None = None
        self._skyline_audit: dict[str, Any] | None = None
        self._utility: bool = True

    # -- builder steps ----------------------------------------------------------------
    def model(self, model: str | PrivacyModel, **params: Any) -> "Pipeline":
        """The privacy requirement: a registry name plus parameters, or an instance."""
        self._model = model
        self._model_params = dict(params)
        return self

    def with_k(self, k: int | None) -> "Pipeline":
        """Conjoin a k-anonymity requirement (the paper's identity-disclosure guard)."""
        self._k = k
        return self

    def algorithm(self, name: str, **options: Any) -> "Pipeline":
        """The anonymization algorithm (registry name) and its options."""
        self._algorithm = name
        self._algorithm_options = dict(options)
        return self

    def audit(
        self,
        *,
        b_prime: float = 0.3,
        threshold: float | None = None,
        kernel: str | None = None,
        method: str = "omega",
    ) -> "Pipeline":
        """Replay the background-knowledge attack of ``Adv(b')`` on the release.

        ``threshold`` defaults to the privacy model's own ``t`` when it has
        one (the natural "did the model keep its promise" audit).
        """
        self._audit = {
            "b_prime": float(b_prime),
            "threshold": threshold,
            "kernel": kernel,
            "method": method,
        }
        return self

    def audit_skyline(
        self,
        skyline: list[tuple[Any, float]] | None = None,
        *,
        method: str = "omega",
    ) -> "Pipeline":
        """Audit the release against a whole skyline ``{(B_i, t_i)}`` of adversaries.

        With ``skyline=None`` the points are taken from the privacy model
        itself (every (B,t) component contributes its ``(b, t)`` pair) - the
        natural "did every promised adversary stay below budget" audit for
        :class:`~repro.privacy.models.SkylineBTPrivacy` releases.
        """
        self._skyline_audit = {
            "skyline": list(skyline) if skyline is not None else None,
            "method": method,
        }
        return self

    def with_utility(self, enabled: bool = True) -> "Pipeline":
        """Toggle the utility report (on by default)."""
        self._utility = bool(enabled)
        return self

    # -- execution --------------------------------------------------------------------
    def _resolve_threshold(self, model: PrivacyModel, configured: float | None) -> float:
        if configured is not None:
            return float(configured)
        for component in model.components():
            t = getattr(component, "t", None)
            if t is not None:
                return float(t)
        raise PipelineError(
            "audit threshold not given and the model has no t parameter; "
            "pass audit(threshold=...)"
        )

    def _resolve_skyline(
        self, model: PrivacyModel, configured: list[tuple[Any, float]] | None
    ) -> list[tuple[Any, float]]:
        if configured is not None:
            return configured
        points = [
            (component.b, component.t)
            for component in model.components()
            if isinstance(component, BTPrivacy)
        ]
        if not points:
            raise PipelineError(
                "audit_skyline() without points requires a model with (B,t) "
                "components; pass audit_skyline([(b1, t1), ...])"
            )
        return points

    def streaming(
        self,
        *,
        refine_factor: float = 1.5,
        compact_drift: float = 0.5,
        store_dir: str | None = None,
    ) -> "IncrementalPublisher":
        """Launch this pipeline's configuration as an incremental stream.

        Instead of one :meth:`run`, the configured model (plus ``with_k`` and
        the ``audit_skyline`` points, when set) seeds an
        :class:`~repro.stream.IncrementalPublisher` on the session's table;
        the seed release is published immediately and subsequent
        ``append(batch)`` / ``delete(rows)`` / ``update(rows, batch)`` calls
        republish incrementally.  ``store_dir`` persists every version to a
        disk-backed :class:`~repro.stream.ReleaseStore` (resumable with
        :meth:`~repro.stream.IncrementalPublisher.resume`).  Only the
        Mondrian algorithm supports streaming (the split tree is what gets
        reused).
        """
        if self._model is None:
            raise PipelineError("pipeline has no model; call .model(name, ...) first")
        if self._algorithm != "mondrian":
            raise PipelineError(
                f"streaming supports only the 'mondrian' algorithm, not {self._algorithm!r}"
            )
        requirement = self.session.build_model(self._model, **self._model_params)
        skyline = None
        if self._skyline_audit is not None:
            skyline = self._resolve_skyline(requirement, self._skyline_audit["skyline"])
        method = (
            self._skyline_audit["method"] if self._skyline_audit is not None else "omega"
        )
        return self.session.stream(
            requirement,
            skyline=skyline,
            k=self._k,
            method=method,
            split_strategy=self._algorithm_options.get("split_strategy", "widest"),
            refine_factor=refine_factor,
            compact_drift=compact_drift,
            store_dir=store_dir,
        )

    def run(self, *, tracer: Tracer | None = None) -> ReleaseBundle:
        """Execute the configured pipeline and return its :class:`ReleaseBundle`.

        ``tracer`` (default: the thread's ambient tracer) records one
        ``pipeline.run`` span with an ``anonymize`` / ``audit`` /
        ``skyline_audit`` / ``utility`` child per executed stage; the
        bundle's ``timings`` dict is derived from those spans, with the same
        keys whether tracing is enabled or not.
        """
        if self._model is None:
            raise PipelineError("pipeline has no model; call .model(name, ...) first")
        session = self.session
        requirement = session.build_model(self._model, **self._model_params)
        tracer = tracer if tracer is not None else current_tracer()

        with tracer.activate(), tracer.timed("pipeline.run") as run_span:
            with tracer.timed("anonymize", algorithm=self._algorithm) as anonymize_span:
                result = session.anonymize(
                    requirement,
                    k=self._k,
                    algorithm=self._algorithm,
                    **self._algorithm_options,
                )
            anonymize_span.annotate(
                groups=result.release.n_groups,
                prepare_seconds=result.prepare_seconds,
                partition_seconds=result.partition_seconds,
            )
            timings = {
                "prepare_seconds": result.prepare_seconds,
                "partition_seconds": result.partition_seconds,
            }

            attack: AttackResult | None = None
            if self._audit is not None:
                threshold = self._resolve_threshold(requirement, self._audit["threshold"])
                with tracer.timed(
                    "audit", b_prime=self._audit["b_prime"]
                ) as audit_span:
                    attack = session.attack(
                        result.release.groups,
                        b_prime=self._audit["b_prime"],
                        threshold=threshold,
                        kernel=self._audit["kernel"],
                        method=self._audit["method"],
                    )
                timings["audit_seconds"] = audit_span.duration_s

            skyline_audit: SkylineAuditReport | None = None
            if self._skyline_audit is not None:
                points = self._resolve_skyline(requirement, self._skyline_audit["skyline"])
                with tracer.timed(
                    "skyline_audit", adversaries=len(points)
                ) as skyline_span:
                    skyline_audit = session.audit_skyline(
                        result.release.groups,
                        points,
                        method=self._skyline_audit["method"],
                    )
                timings["skyline_audit_seconds"] = skyline_span.duration_s

            utility: dict[str, float] | None = None
            if self._utility:
                with tracer.timed("utility") as utility_span:
                    utility = utility_report(result.release)
                timings["utility_seconds"] = utility_span.duration_s

            timings["total_seconds"] = sum(timings.values())
            run_span.annotate(model=result.model_description)
        return ReleaseBundle(
            release=result.release,
            result=result,
            model_description=result.model_description,
            attack=attack,
            skyline_audit=skyline_audit,
            utility=utility,
            timings=timings,
        )
