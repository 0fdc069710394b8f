"""Parameter sweeps: run grids of pipeline configurations with shared caches.

A sweep is the primitive behind every evaluation artefact of the paper - "the
four models under para1..para4", "(B,t) for b in 0.2..0.5" - and behind any
benchmark that compares configurations.  :func:`run_sweep` executes a list of
:class:`SweepSpec` rows through one :class:`~repro.api.session.Session`, so
expensive preparation (one kernel fit per kernel, the priors contracted on
it, audit adversaries) is shared across the whole grid::

    session = Session(table)
    specs = expand_grid(model=["bt", "distinct-l", "t-closeness"], b=0.3, t=[0.1, 0.2], l=4, k=4)
    outcome = session.sweep(specs)
    print(outcome.render())

Models named by string pick the parameters they understand from the grid row
(``distinct-l`` ignores ``b``; ``bt`` ignores ``l``), which is what lets one
grid span heterogeneous models.  The grid runs serially in the calling
session, so every cell shares its caches; the work inside each cell (prior
contraction, skyline audits) runs on the session's ``jobs`` threads.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.api.pipeline import ReleaseBundle
from repro.api.registry import MODELS
from repro.api.session import Session
from repro.exceptions import PipelineError, ReproError
from repro.privacy.models import PrivacyModel


@dataclass
class SweepSpec:
    """One grid cell: a model configuration plus the pipeline steps to run."""

    model: str | PrivacyModel
    params: dict[str, Any] = field(default_factory=dict)
    k: int | None = None
    algorithm: str = "mondrian"
    options: dict[str, Any] = field(default_factory=dict)
    audit: Mapping[str, Any] | None = None
    utility: bool = True
    label: str = ""

    def resolved_label(self) -> str:
        """The explicit label, or one derived from the model and parameters."""
        if self.label:
            return self.label
        if isinstance(self.model, PrivacyModel):
            return f"{self.model.name}({self.model.describe()})"
        if self.model not in MODELS:
            # Leave unknown names resolvable as labels; the registry raises
            # the real error when the spec executes.
            return str(self.model)
        accepted = set(MODELS.parameters(self.model))
        shown = {name: value for name, value in self.params.items() if name in accepted}
        inner = ", ".join(f"{name}={value!r}" for name, value in sorted(shown.items()))
        text = f"{self.model}({inner})" if inner else self.model
        return f"{text}+k={self.k}" if self.k is not None else text


def expand_grid(
    *,
    audit: Mapping[str, Any] | None = None,
    utility: bool = True,
    options: Mapping[str, Any] | None = None,
    **axes: Any,
) -> list[SweepSpec]:
    """Cartesian product of parameter axes, as a list of :class:`SweepSpec`.

    Each keyword is an axis; scalar values are broadcast, lists/tuples are
    swept.  ``model`` is required; ``k`` and ``algorithm`` configure the
    pipeline; every other axis becomes a model parameter (each model picks the
    parameters it understands)::

        expand_grid(model=["bt", "t-closeness"], b=[0.2, 0.3], t=0.2, k=4)
        # -> 4 specs: 2 models x 2 bandwidths
    """
    if "model" not in axes:
        raise PipelineError("expand_grid requires a 'model' axis")
    names = list(axes)
    levels: list[Sequence[Any]] = [
        value if isinstance(value, (list, tuple)) else (value,) for value in axes.values()
    ]
    specs: list[SweepSpec] = []
    for combination in itertools.product(*levels):
        row = dict(zip(names, combination))
        model = row.pop("model")
        k = row.pop("k", None)
        algorithm = row.pop("algorithm", "mondrian")
        specs.append(
            SweepSpec(
                model=model,
                params=row,
                k=k,
                algorithm=algorithm,
                options=dict(options or {}),
                audit=dict(audit) if audit is not None else None,
                utility=utility,
            )
        )
    return specs


@dataclass
class SweepRow:
    """The outcome of one grid cell: its bundle, or the error that stopped it."""

    label: str
    spec: SweepSpec
    bundle: ReleaseBundle | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether this cell produced a release."""
        return self.bundle is not None


@dataclass
class SweepOutcome:
    """All rows of one sweep plus the session cache statistics at completion."""

    rows: list[SweepRow]
    stats: dict[str, int] = field(default_factory=dict)

    def bundles(self) -> dict[str, ReleaseBundle]:
        """Mapping from row label to bundle (successful rows only)."""
        return {row.label: row.bundle for row in self.rows if row.bundle is not None}

    def to_dicts(self) -> list[dict[str, Any]]:
        """One flat summary dictionary per row (for tables / CSV export)."""
        records = []
        for row in self.rows:
            record: dict[str, Any] = {"label": row.label}
            if row.bundle is not None:
                record.update(row.bundle.summary())
            if row.error is not None:
                record["error"] = row.error
            records.append(record)
        return records

    def render(self) -> str:
        """Plain-text table of the sweep (one line per grid cell)."""
        columns = [
            ("label", "{}"),
            ("n_groups", "{}"),
            ("average_group_size", "{:.1f}"),
            ("prepare_seconds", "{:.3f}"),
            ("partition_seconds", "{:.3f}"),
            ("vulnerable_tuples", "{}"),
            ("worst_case_risk", "{:.4f}"),
            ("discernibility_metric", "{:.0f}"),
            ("global_certainty_penalty", "{:.0f}"),
            ("error", "{}"),
        ]
        records = self.to_dicts()
        used = [
            (name, fmt) for name, fmt in columns if any(name in record for record in records)
        ]
        header = [name for name, _ in used]
        body = []
        for record in records:
            cells = []
            for name, fmt in used:
                value = record.get(name)
                cells.append("-" if value is None else fmt.format(value))
            body.append(cells)
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(title.ljust(width) for title, width in zip(header, widths)),
            "  ".join("-" * width for width in widths),
        ]
        for cells in body:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(cells, widths)))
        return "\n".join(lines)


def _coerce_spec(spec: SweepSpec | Mapping[str, Any]) -> SweepSpec:
    if isinstance(spec, SweepSpec):
        return spec
    return SweepSpec(**dict(spec))


def _execute_spec(session: Session, spec: SweepSpec, on_error: str) -> SweepRow:
    label = spec.resolved_label()
    try:
        if isinstance(spec.model, str):
            # Session-built models default to the session's kernel; an
            # explicit kernel param still wins.
            params = {"kernel": session.config.kernel, **spec.params}
            model = MODELS.build_filtered(spec.model, params)
        else:
            model = spec.model
        pipeline = (
            session.pipeline()
            .model(model)
            .with_k(spec.k)
            .algorithm(spec.algorithm, **spec.options)
            .with_utility(spec.utility)
        )
        if spec.audit is not None:
            pipeline.audit(**spec.audit)
        return SweepRow(label=label, spec=spec, bundle=pipeline.run())
    except ReproError as error:
        if on_error == "raise":
            raise
        return SweepRow(label=label, spec=spec, error=str(error))


def run_sweep(
    session: Session,
    specs: Iterable[SweepSpec | Mapping[str, Any]],
    *,
    on_error: str = "raise",
) -> SweepOutcome:
    """Execute a grid of pipeline configurations against one session.

    Parameters
    ----------
    session:
        The session whose table and caches the grid uses.
    specs:
        :class:`SweepSpec` rows or equivalent mappings (see :func:`expand_grid`).
    on_error:
        ``"raise"`` propagates the first failing cell; ``"continue"`` records
        the error on its row and keeps sweeping.
    """
    if on_error not in {"raise", "continue"}:
        raise PipelineError("on_error must be 'raise' or 'continue'")
    resolved = [_coerce_spec(spec) for spec in specs]
    if not resolved:
        raise PipelineError("a sweep requires at least one spec")

    # Disambiguate duplicate labels (e.g. models that ignore a swept axis) so
    # bundles() keeps every row and the rendered table stays readable.
    labels = [spec.resolved_label() for spec in resolved]
    repeated = {label for label, count in Counter(labels).items() if count > 1}
    occurrence: Counter = Counter()
    for index, (spec, label) in enumerate(zip(resolved, labels)):
        if label in repeated:
            occurrence[label] += 1
            resolved[index] = replace(spec, label=f"{label} #{occurrence[label]}")

    rows = [_execute_spec(session, spec, on_error) for spec in resolved]
    return SweepOutcome(rows=rows, stats=session.stats.as_dict())
