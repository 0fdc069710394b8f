"""``repro.serve``: a multi-tenant release-serving daemon over the stream engine.

The serving layer turns the incremental publication machinery of
:mod:`repro.stream` into a long-running HTTP service: a
:class:`~repro.serve.registry.StreamRegistry` hosts many named streams (each
an :class:`~repro.stream.IncrementalPublisher` over its own disk shard),
per-stream workers coalesce queued mutations into single published versions,
and immutable historical versions, lineages and skyline-audit reports are
served lock-free to concurrent readers.  See :mod:`repro.serve.app` for the
daemon, :mod:`repro.serve.service` for the route semantics and
:mod:`repro.serve.registry` for the hosting model; ``repro serve`` is the CLI
entry point.
"""

from repro.serve.app import MAX_BODY_BYTES, ServeApp
from repro.serve.errors import (
    ApiError,
    BadRequest,
    Conflict,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    TooManyRequests,
)
from repro.serve.metrics import ServeMetrics, StreamMetrics
from repro.serve.registry import (
    CONFIG_DEFAULTS,
    DEFAULT_MAX_QUEUE_BATCHES,
    DEFAULT_MAX_QUEUED_ROWS,
    StreamHost,
    StreamRegistry,
)
from repro.serve.router import Request, Response, Router
from repro.serve.service import ReproService

__all__ = [
    "ApiError",
    "BadRequest",
    "CONFIG_DEFAULTS",
    "Conflict",
    "DEFAULT_MAX_QUEUE_BATCHES",
    "DEFAULT_MAX_QUEUED_ROWS",
    "MAX_BODY_BYTES",
    "MethodNotAllowed",
    "NotFound",
    "PayloadTooLarge",
    "ReproService",
    "Request",
    "Response",
    "Router",
    "ServeApp",
    "ServeMetrics",
    "StreamHost",
    "StreamMetrics",
    "StreamRegistry",
    "TooManyRequests",
]
