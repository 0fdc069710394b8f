"""repro.obs: observability for the publish path.

Three stdlib-only pieces (see the submodules for detail):

* :mod:`repro.obs.tracing` - hierarchical :class:`Span` trees from a
  :class:`Tracer`, cheap enough to leave on, a no-op when disabled, and
  JSON-serializable so the daemon can serve each version's publish trace.
* :mod:`repro.obs.log` - a JSON-lines :class:`~repro.obs.log.JsonFormatter`
  on stdlib :mod:`logging` (``repro serve --log-level --log-format``), with
  per-request trace ids riding every record.
* :mod:`repro.obs.prometheus` - the ``/metrics`` snapshot rendered in the
  Prometheus text exposition format.
"""

from repro.obs.tracing import (
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    new_trace_id,
)

__all__ = [
    "NULL_TRACER",
    "Span",
    "Tracer",
    "current_tracer",
    "new_trace_id",
]
