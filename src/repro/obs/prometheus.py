"""Prometheus text exposition of the daemon's metrics snapshot.

``GET /metrics`` keeps its JSON document; ``GET /metrics?format=prometheus``
(and the ``/metrics.prom`` alias) render the *same* snapshot - the
:class:`~repro.stats.CounterSet` / :class:`~repro.stats.Histogram` summaries
plus live queue gauges - in the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ version
0.0.4, so any standard scraper can ingest the daemon without an adapter.

Mapping:

* counters -> ``repro_server_<name>_total`` and
  ``repro_stream_<name>_total{stream="..."}``
* histograms -> summary families (``{quantile="0.5|0.95|0.99"}`` +
  ``_sum`` / ``_count``), with window min/max as ``_min`` / ``_max`` gauges
* registry state -> per-stream gauges (versions, rows, groups, satisfied,
  drift, queue depth/high-water/bounds, poisoned)

The renderer is a pure function over the ``/metrics`` JSON payload, so the
two representations can never drift apart.
"""

from __future__ import annotations

from typing import Any, Mapping

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Per-stream gauge fields of the ``/metrics`` stream summaries.
_STREAM_GAUGES = (
    ("versions", "Published versions in the stream's lineage."),
    ("rows", "Rows in the latest published version."),
    ("groups", "Anonymized groups in the latest published version."),
    ("satisfied", "1 when the latest version satisfies its skyline, else 0."),
    ("drift_rows", "Accumulated partition drift toward the next compaction."),
    ("queue_depth", "Mutation batches waiting for the stream's worker."),
    ("queue_depth_rows", "Rows pinned by queued mutation batches."),
    ("queue_high_water", "Highest observed queued-batch count."),
    ("queue_high_water_rows", "Highest observed queued-row count."),
    ("max_queue_batches", "Bound on queued batches (429 beyond it)."),
    ("max_queued_rows", "Bound on queued rows (429 beyond it)."),
    ("poisoned", "1 when the stream is poisoned (writes 409), else 0."),
)

_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Family:
    """One metric family: TYPE/HELP header plus its sample lines."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: list[tuple[str, dict[str, str], Any]] = []

    def add(self, value: Any, labels: Mapping[str, str] | None = None, suffix: str = "") -> None:
        if value is None:
            return
        self.samples.append((suffix, dict(labels or {}), value))

    def lines(self) -> list[str]:
        if not self.samples:
            return []
        out = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            rendered = ",".join(
                f'{key}="{_escape(str(labels[key]))}"' for key in sorted(labels)
            )
            label_part = f"{{{rendered}}}" if rendered else ""
            out.append(f"{self.name}{suffix}{label_part} {_format_value(value)}")
        return out


class _Registry:
    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def family(self, name: str, kind: str, help_text: str) -> _Family:
        if name not in self._families:
            self._families[name] = _Family(name, kind, help_text)
        return self._families[name]

    def render(self) -> str:
        lines: list[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].lines())
        return "\n".join(lines) + "\n"


def _summary_family(
    registry: _Registry,
    name: str,
    summary: Mapping[str, Any],
    help_text: str,
    labels: Mapping[str, str] | None = None,
) -> None:
    """Render one ``Histogram.summary()`` dict as a Prometheus summary."""
    family = registry.family(name, "summary", help_text)
    for quantile, key in _QUANTILES:
        family.add(summary.get(key), {**(labels or {}), "quantile": quantile})
    family.add(summary.get("count", 0), labels, suffix="_count")
    count = summary.get("count") or 0
    mean = summary.get("mean")
    family.add(
        (mean * count) if mean is not None else 0.0, labels, suffix="_sum"
    )
    for bound in ("min", "max"):
        registry.family(
            f"{name}_{bound}",
            "gauge",
            f"{bound[0].upper()}{bound[1:]} of the recent {name} window.",
        ).add(summary.get(bound), labels)


def render(payload: Mapping[str, Any]) -> str:
    """The ``/metrics`` JSON payload in Prometheus text format 0.0.4."""
    registry = _Registry()
    server = payload.get("server", {})
    registry.family(
        "repro_server_uptime_seconds", "gauge", "Seconds since the daemon started."
    ).add(server.get("uptime_seconds"))
    for name, value in sorted(server.get("counters", {}).items()):
        registry.family(
            f"repro_server_{name}_total", "counter", f"Daemon-wide {name} count."
        ).add(value)
    for kind in ("read", "write"):
        summary = server.get(f"{kind}_seconds")
        if summary:
            _summary_family(
                registry,
                f"repro_server_{kind}_seconds",
                summary,
                f"Latency of handled {kind} requests in seconds.",
            )

    for stream_name, stream in sorted(payload.get("streams", {}).items()):
        labels = {"stream": stream_name}
        for field, help_text in _STREAM_GAUGES:
            value = stream.get(field)
            if field == "poisoned":
                value = 0 if value is None else 1
            registry.family(f"repro_stream_{field}", "gauge", help_text).add(
                value, labels
            )
        for name, value in sorted(stream.get("counters", {}).items()):
            registry.family(
                f"repro_stream_{name}_total",
                "counter",
                f"Per-stream {name} count.",
            ).add(value, labels)
        summary = stream.get("publish_seconds")
        if summary:
            _summary_family(
                registry,
                "repro_stream_publish_seconds",
                summary,
                "Publication latency per coalesced tick in seconds.",
                labels,
            )
    return registry.render()


__all__ = ["render", "CONTENT_TYPE"]
