"""Multi-tenant stream hosting: one publisher + store shard + writer per stream.

The :class:`StreamRegistry` owns a data directory with one shard per named
stream::

    data/
      census/   stream.json  lineage.jsonl  state.json  version-*.npz  store.lock
      hospital/ ...

``stream.json`` records the creation config (model name and parameters), so a
daemon restart can rebuild each stream's privacy model and hand it to
:meth:`~repro.stream.IncrementalPublisher.resume` - every stream resumes
automatically, with versions identical to an uninterrupted publisher.

Writes are serialized per stream through a :class:`StreamHost` worker thread:
every mutation submitted while a tick is in flight (plus anything arriving
within the ``coalesce_ms`` window) is drained into **one** coalesced publish,
so a burst of N batches publishes one version instead of N.  Reads never
enter the worker: published versions are immutable and the store's version
list is append-only, so historical versions, lineages and audit reports are
served lock-free from memory while a publication is in flight.

Each tick runs
:meth:`~repro.stream.IncrementalPublisher.publish_coalesced` on the host's
own thread, against the publisher that holds the shard's ``store.lock``.
Threads are the daemon's only concurrency: no module starts a process, and
the estimation backend's contraction fans out on the shared ``jobs`` thread
pool.

Every host's queue is **bounded** (``max_queue_batches`` /
``max_queued_rows``): a mutation that would overflow it is rejected
immediately with :class:`~repro.serve.errors.TooManyRequests` (HTTP 429 +
``Retry-After`` derived from observed publish latency) instead of buffering
without limit.  The queue's high-water marks and the cumulative rejected
count stay visible in ``/metrics`` after the burst passes.

A publication failure poisons only its own stream (PR 5's poisoning
semantics): the host fails the tick's waiters, marks itself poisoned, and
keeps serving reads; sibling streams keep publishing.  The daemon surfaces
the state as 409 pointing at the restart-resume path.
"""

from __future__ import annotations

import json
import logging
import math
import queue
import re
import shutil
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.api.registry import MODELS
from repro.data.adult import adult_schema
from repro.data.schema import Schema
from repro.data.table import MicrodataTable
from repro.exceptions import ReproError, StreamError
from repro.knowledge.backend import DEFAULT_MAX_CELLS, EstimatorConfig
from repro.knowledge.parallel import parse_jobs
from repro.serve.errors import ApiError, BadRequest, Conflict, NotFound, TooManyRequests
from repro.serve.metrics import StreamMetrics
from repro.stream import IncrementalPublisher
from repro.stream.store import VersionCache

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_STOP = object()

_logger = logging.getLogger("repro.serve.registry")

#: Bounded-queue defaults: generous enough that a well-paced client never
#: sees 429, small enough that a flood cannot buffer without limit.
DEFAULT_MAX_QUEUE_BATCHES = 64
DEFAULT_MAX_QUEUED_ROWS = 100_000

#: Publications slower than this (seconds) log a warning by default.
DEFAULT_SLOW_PUBLISH_SECONDS = 5.0

#: Completed tick traces kept in memory per stream (oldest evicted first).
_MAX_TRACES = 64


def _operation_rows(operation: tuple[str, Any]) -> int:
    """Rows a queued mutation pins in memory (the queue's row accounting)."""
    kind, payload = operation
    if kind == "append":
        return len(payload)
    if kind == "delete":
        return len(payload)
    if kind == "update":
        return len(payload[0])
    return 0

#: Creation config: accepted keys and their defaults (persisted per shard).
CONFIG_DEFAULTS: dict[str, Any] = {
    "model": "bt",
    "b": 0.3,
    "t": 0.2,
    "l": 4.0,
    "k": 4,
    "skyline": None,
    "method": "omega",
    "split_strategy": "widest",
    "refine_factor": 1.5,
    "compact_drift": 0.5,
    "max_cells": DEFAULT_MAX_CELLS,
}

CONFIG_FILE = "stream.json"


def build_stream_model(config: Mapping[str, Any]):
    """Build a stream's privacy model from its (resolved) creation config."""
    return MODELS.build_filtered(
        config["model"],
        {
            "b": config["b"],
            "t": config["t"],
            "l": config["l"],
            "k": config["k"],
        },
    )


def _config_integer(value: Any, message: str) -> int:
    """An integer stream-config value: an int, an integral float or an integer string.

    Booleans and fractional numbers are refused, not truncated: ``true``
    would otherwise read as ``1`` and ``3.7`` as ``3``.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise BadRequest(message)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise BadRequest(message) from None


def _config_number(value: Any, message: str) -> float:
    """A real-valued stream-config value: a number or a numeric string.

    Booleans and NaN are refused: ``true`` would otherwise read as ``1.0``
    and NaN slips through every ordered comparison.  Infinity stays
    accepted (``compact_drift = inf`` turns compaction off).
    """
    if isinstance(value, bool):
        raise BadRequest(message)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise BadRequest(message) from None
    if math.isnan(number):
        raise BadRequest(message)
    return number


class _Submission:
    """One queued mutation, its row weight and the future its submitter awaits."""

    __slots__ = ("operation", "rows", "future", "trace_id")

    def __init__(self, operation: tuple[str, Any], trace_id: str | None = None):
        self.operation = operation
        self.rows = _operation_rows(operation)
        self.future: Future = Future()
        self.trace_id = trace_id


class StreamHost:
    """One hosted stream: its config, bounded queue and serialized write worker.

    The host owns an :class:`~repro.stream.IncrementalPublisher` and
    publishes on its own worker thread.
    """

    def __init__(
        self,
        name: str,
        publisher: IncrementalPublisher,
        config: dict[str, Any],
        *,
        coalesce_seconds: float = 0.05,
        max_queue_batches: int = DEFAULT_MAX_QUEUE_BATCHES,
        max_queued_rows: int = DEFAULT_MAX_QUEUED_ROWS,
        slow_publish_seconds: float = DEFAULT_SLOW_PUBLISH_SECONDS,
    ):
        self.name = name
        self.publisher = publisher
        self.config = config
        # The host shares the publisher's tracer, so the tick span and the
        # publish spans land in one tree.
        self.tracer = publisher.tracer
        self._slow_publish_seconds = float(slow_publish_seconds)
        self._traces: dict[int, dict[str, Any]] = {}
        self.metrics = StreamMetrics()
        self._coalesce_seconds = float(coalesce_seconds)
        self._max_queue_batches = int(max_queue_batches)
        self._max_queued_rows = int(max_queued_rows)
        self._queued_batches = 0
        self._queued_rows = 0
        self._queue_high_water_batches = 0
        self._queue_high_water_rows = 0
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._poisoned: str | None = None
        self._gate = threading.Event()
        self._gate.set()
        self._worker = threading.Thread(
            target=self._run, name=f"repro-serve-{name}", daemon=True
        )
        self._worker.start()

    # -- read-side accessors (lock-free: published versions are immutable) -------------
    @property
    def store(self):
        """The stream's release store."""
        return self.publisher.store

    @property
    def poisoned(self) -> str | None:
        """The poisoning error message, or ``None`` while healthy."""
        return self._poisoned

    @property
    def queue_depth(self) -> int:
        """Mutation batches waiting for the worker (approximate, by nature)."""
        with self._lock:
            return self._queued_batches

    def queue_stats(self) -> dict[str, int]:
        """Bounded-queue accounting: depth, bounds and high-water marks."""
        with self._lock:
            return {
                "queue_depth": self._queued_batches,
                "queue_depth_rows": self._queued_rows,
                "queue_high_water": self._queue_high_water_batches,
                "queue_high_water_rows": self._queue_high_water_rows,
                "max_queue_batches": self._max_queue_batches,
                "max_queued_rows": self._max_queued_rows,
            }

    def retry_after_seconds(self) -> int:
        """Whole seconds a 429'd client should wait: the publish-latency p50.

        One median publication usually frees the whole queue (a tick drains
        everything queued), so the observed p50 - floored at the protocol's
        minimum of one second - is an honest pacing hint.
        """
        p50 = self.metrics.publish_seconds.percentile(50.0)
        if p50 is None:
            return 1
        return max(1, int(-(-p50 // 1)))

    def poisoned_message(self) -> str:
        return (
            f"stream {self.name!r} is poisoned ({self._poisoned}); historical "
            "versions remain servable, and the stream continues after a daemon "
            "restart (IncrementalPublisher.resume reconstructs it from disk)"
        )

    def describe(self) -> dict[str, Any]:
        """JSON-able summary: lineage position, drift, queue and health."""
        latest = self.store.latest()
        summary = {
            "name": self.name,
            "versions": len(self.store),
            "rows": latest.n_rows,
            "groups": latest.n_groups,
            "satisfied": latest.satisfied,
            "drift_rows": self.publisher.drift_rows,
            "poisoned": self._poisoned,
            "config": self.config,
        }
        summary.update(self.queue_stats())
        return summary

    def trace_for(self, number: int) -> dict[str, Any] | None:
        """The stitched publish trace of a recently published version.

        Traces live in a bounded in-memory window (the lineage on disk stays
        exactly as before); versions published before the daemon started, or
        evicted from the window, return ``None``.
        """
        with self._lock:
            return self._traces.get(int(number))

    # -- write side ---------------------------------------------------------------------
    def submit(self, operation: tuple[str, Any], trace_id: str | None = None) -> Future:
        """Enqueue one mutation; the future resolves to the published version.

        All operations drained in one worker tick coalesce into a single
        version, so concurrent submitters may receive the *same* version.
        ``trace_id`` (the submitting request's id) is echoed on the tick's
        publish span.  Raises :class:`~repro.exceptions.StreamError`
        immediately when the stream is already poisoned, and
        :class:`~repro.serve.errors.TooManyRequests` when accepting the
        mutation would push the queue past its batch or row bound -
        backpressure instead of unbounded buffering.
        """
        submission = _Submission(operation, trace_id)
        with self._lock:
            if self._poisoned is not None:
                raise StreamError(self.poisoned_message())
            if (
                self._queued_batches + 1 > self._max_queue_batches
                or self._queued_rows + submission.rows > self._max_queued_rows
            ):
                self.metrics.counters.increment("rejected_batches")
                raise TooManyRequests(
                    f"stream {self.name!r} write queue is full "
                    f"({self._queued_batches} batches / {self._queued_rows} rows "
                    f"queued; bounds: {self._max_queue_batches} batches, "
                    f"{self._max_queued_rows} rows); retry once the in-flight "
                    "publication drains the queue",
                    retry_after=self.retry_after_seconds(),
                )
            self._queued_batches += 1
            self._queued_rows += submission.rows
            self._queue_high_water_batches = max(
                self._queue_high_water_batches, self._queued_batches
            )
            self._queue_high_water_rows = max(
                self._queue_high_water_rows, self._queued_rows
            )
            self._queue.put(submission)
            return submission.future

    def pause(self) -> None:
        """Hold the worker before its next tick (tests/benchmarks only).

        Submissions made while paused pile up in the queue and coalesce into
        one deterministic tick on :meth:`unpause`.
        """
        self._gate.clear()

    def unpause(self) -> None:
        """Release a :meth:`pause`."""
        self._gate.set()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._gate.wait()
            batch = [item]
            stop = False
            deadline = time.monotonic() + self._coalesce_seconds
            while True:
                remaining = deadline - time.monotonic()
                try:
                    nxt = (
                        self._queue.get(timeout=remaining)
                        if remaining > 0
                        else self._queue.get_nowait()
                    )
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            # The tick owns its batch now: free the queue budget *before*
            # publishing, so clients rejected during a long publication can
            # refill the queue up to the bound while it runs.
            with self._lock:
                self._queued_batches -= len(batch)
                self._queued_rows -= sum(item.rows for item in batch)
            self._publish_tick(batch)
            if stop:
                return

    def _publish_tick(self, batch: list[_Submission]) -> None:
        """Publish one coalesced version for every submission of this tick."""
        # A submitter may have cancelled (e.g. its connection died); marking
        # the rest RUNNING makes them uncancellable for the publish.
        live = [s for s in batch if s.future.set_running_or_notify_cancel()]
        if not live:
            return
        if self._poisoned is not None:
            error = StreamError(self.poisoned_message())
            for submission in live:
                submission.future.set_exception(error)
            return
        operations = [submission.operation for submission in live]
        trace_ids = [s.trace_id for s in live if s.trace_id]
        version = None
        with self.tracer.timed(
            "serve.publish_tick",
            stream=self.name,
            operations=len(live),
            trace_ids=trace_ids,
        ) as tick_span:
            try:
                version = self.publisher.publish_coalesced(operations)
            except BaseException as error:  # noqa: BLE001 - forwarded to every waiter
                poisoned = self.publisher.poisoned
                if poisoned:
                    with self._lock:
                        self._poisoned = f"{type(error).__name__}: {error}"
                _logger.error(
                    "publication tick failed",
                    extra={
                        "stream": self.name,
                        "operations": len(live),
                        "trace_ids": trace_ids,
                        "poisoned": bool(poisoned),
                        "error": f"{type(error).__name__}: {error}",
                    },
                )
                self.metrics.counters.increment("failed_batches", len(live))
                for submission in live:
                    submission.future.set_exception(error)
            else:
                tick_span.annotate(version=version.version)
        root = self.tracer.take_root()
        if version is None:
            return
        if root is not None:
            with self._lock:
                self._traces[version.version] = root.to_dict()
                while len(self._traces) > _MAX_TRACES:
                    del self._traces[next(iter(self._traces))]
        seconds = tick_span.duration_s
        if seconds >= self._slow_publish_seconds:
            _logger.warning(
                "slow publish",
                extra={
                    "stream": self.name,
                    "publish_seconds": seconds,
                    "operations": len(live),
                    "version": version.version,
                    "trace_ids": trace_ids,
                },
            )
        self.metrics.publish_seconds.observe(seconds)
        self.metrics.counters.increment("publishes")
        self.metrics.counters.increment("coalesced_operations", len(live))
        for submission in live:
            self.metrics.counters.increment(f"{submission.operation[0]}_batches")
            submission.future.set_result(version)

    def close(self) -> None:
        """Stop the worker, fail unserved waiters and release the store lock."""
        self._gate.set()
        self._queue.put(_STOP)
        self._worker.join(timeout=60.0)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(
                    StreamError(f"stream {self.name!r} is shutting down")
                )
        self.publisher.close()


class StreamRegistry:
    """Every hosted stream under one data directory.

    Construction scans ``data_dir`` and resumes every shard holding a
    ``stream.json`` (failed shards raise, naming the directory - a daemon
    must not silently drop a stream).  ``schema`` defaults to the Adult
    (Table IV) schema the CLI is bound to.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        coalesce_ms: float = 50.0,
        schema: Schema | None = None,
        jobs: int | None = None,
        max_queue_batches: int | None = None,
        max_queued_rows: int | None = None,
        slow_publish_seconds: float = DEFAULT_SLOW_PUBLISH_SECONDS,
    ):
        # The window becomes a queue.get timeout, which must fit the
        # platform's time_t or the writer thread dies on its first tick.
        if not 0 <= coalesce_ms / 1000.0 <= threading.TIMEOUT_MAX:
            raise BadRequest(
                "coalesce_ms must be a non-negative number of at most "
                f"{threading.TIMEOUT_MAX * 1000.0:g} ms"
            )
        if slow_publish_seconds <= 0:
            raise BadRequest("slow_publish_seconds must be positive")
        if jobs is not None:
            try:
                parse_jobs(jobs)
            except ReproError as error:
                raise BadRequest(str(error)) from None
        # A runtime knob for the estimation backend's contraction threads,
        # deliberately not part of any stream's persisted config: versions
        # are bitwise identical at any thread count.
        self.jobs = jobs
        self._slow_publish_seconds = float(slow_publish_seconds)
        self._max_queue_batches = (
            DEFAULT_MAX_QUEUE_BATCHES if max_queue_batches is None
            else int(max_queue_batches)
        )
        self._max_queued_rows = (
            DEFAULT_MAX_QUEUED_ROWS if max_queued_rows is None
            else int(max_queued_rows)
        )
        if self._max_queue_batches < 1 or self._max_queued_rows < 1:
            raise BadRequest("the queue bounds must be at least 1")
        self.schema = schema if schema is not None else adult_schema()
        # One byte-bounded LRU shared by every shard store: resumed versions
        # decode lazily on first access (GET /streams/<s>/versions/<v> pays
        # the npz decode once, not per request) and the decoded footprint
        # across all tenants stays bounded.
        self.version_cache = VersionCache()
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._coalesce_seconds = float(coalesce_ms) / 1000.0
        self._lock = threading.Lock()
        self._hosts: dict[str, StreamHost] = {}
        try:
            for config_path in sorted(self.data_dir.glob(f"*/{CONFIG_FILE}")):
                self._resume_shard(config_path.parent)
        except BaseException:
            self.close()
            raise

    # -- lookup -------------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered stream names, sorted."""
        with self._lock:
            return sorted(self._hosts)

    def hosts(self) -> list[StreamHost]:
        """A snapshot of every registered host."""
        with self._lock:
            return [self._hosts[name] for name in sorted(self._hosts)]

    def get(self, name: str) -> StreamHost:
        """The host serving ``name`` (404 when unknown)."""
        with self._lock:
            host = self._hosts.get(name)
        if host is None:
            raise NotFound(f"no stream named {name!r}")
        return host

    def __len__(self) -> int:
        with self._lock:
            return len(self._hosts)

    # -- creation and resume --------------------------------------------------------------
    @staticmethod
    def resolve_config(config: Mapping[str, Any] | None) -> dict[str, Any]:
        """Validate a creation config and fill in the defaults."""
        config = dict(config or {})
        unknown = sorted(set(config) - set(CONFIG_DEFAULTS))
        if unknown:
            raise BadRequest(
                f"unknown stream config keys {unknown}; "
                f"accepted: {sorted(CONFIG_DEFAULTS)}"
            )
        resolved = {**CONFIG_DEFAULTS, **config}
        if resolved["model"] not in MODELS.names():
            raise BadRequest(
                f"unknown model {resolved['model']!r}; choose one of {list(MODELS.names())}"
            )
        for key in ("b", "t", "l", "refine_factor", "compact_drift"):
            resolved[key] = _config_number(
                resolved[key], f"stream config {key!r} must be a number"
            )
        if resolved["k"] is not None:
            resolved["k"] = _config_integer(
                resolved["k"], "stream config 'k' must be an integer or null"
            )
        resolved["max_cells"] = _config_integer(
            resolved["max_cells"], "stream config 'max_cells' must be an integer"
        )
        if resolved["max_cells"] < 1:
            raise BadRequest("stream config 'max_cells' must be at least 1")
        if resolved["skyline"] is not None:
            message = "stream config 'skyline' must be a list of [b, t] pairs"
            try:
                resolved["skyline"] = [
                    [_config_number(b, message), _config_number(t, message)]
                    for b, t in resolved["skyline"]
                ]
            except (TypeError, ValueError):
                raise BadRequest(message) from None
        if resolved["method"] not in ("omega", "exact"):
            raise BadRequest("stream config 'method' must be 'omega' or 'exact'")
        return resolved

    def create(
        self,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        config: Mapping[str, Any] | None = None,
    ) -> StreamHost:
        """Create a stream: seed table -> version 0 -> registered host.

        The shard directory, its ``stream.json`` and the seed publication are
        all in place before the host is registered; a failed creation tears
        the shard down again.  Runs the full estimate -> partition -> audit
        pipeline, so callers on an event loop should dispatch to an executor.
        """
        if not _NAME_PATTERN.match(name or ""):
            raise BadRequest(
                f"bad stream name {name!r}; use 1-64 characters from "
                "[A-Za-z0-9._-], starting with a letter or digit"
            )
        resolved = self.resolve_config(config)
        with self._lock:
            if name in self._hosts:
                raise Conflict(f"stream {name!r} already exists")
        shard = self.data_dir / name
        if shard.exists():
            raise Conflict(
                f"the shard directory {shard} already exists but is not a "
                "registered stream; remove the leftover directory first"
            )
        try:
            table = MicrodataTable.from_rows(self.schema, list(rows))
        except ApiError:
            raise
        except (ReproError, TypeError, ValueError) as error:
            raise BadRequest(f"bad seed rows: {error}") from None
        try:
            model = build_stream_model(resolved)
        except ReproError as error:
            raise BadRequest(f"bad stream config: {error}") from None
        skyline = (
            [(b, t) for b, t in resolved["skyline"]]
            if resolved["skyline"] is not None
            else None
        )
        publisher = None
        try:
            publisher = IncrementalPublisher(
                table,
                model,
                skyline=skyline,
                k=resolved["k"],
                method=resolved["method"],
                split_strategy=resolved["split_strategy"],
                refine_factor=resolved["refine_factor"],
                compact_drift=resolved["compact_drift"],
                config=EstimatorConfig(max_cells=resolved["max_cells"], jobs=self.jobs),
                store_path=shard,
                version_cache=self.version_cache,
            )
            publisher.publish()
            (shard / CONFIG_FILE).write_text(
                json.dumps(resolved, sort_keys=True) + "\n"
            )
        except ApiError:
            if publisher is not None:
                publisher.close()
            shutil.rmtree(shard, ignore_errors=True)
            raise
        except ReproError as error:
            if publisher is not None:
                publisher.close()
            shutil.rmtree(shard, ignore_errors=True)
            raise BadRequest(f"cannot publish the seed release: {error}") from None
        return self._register(name, publisher, resolved)

    def _resume_shard(self, shard: Path) -> StreamHost:
        """Rebuild one stream from its shard (daemon restart)."""
        name = shard.name
        try:
            config = self.resolve_config(json.loads((shard / CONFIG_FILE).read_text()))
        except (OSError, json.JSONDecodeError) as error:
            raise StreamError(
                f"cannot resume stream {name!r}: {shard / CONFIG_FILE} is "
                f"unreadable ({error})"
            ) from None
        publisher = IncrementalPublisher.resume(
            shard,
            schema=self.schema,
            model=build_stream_model(config),
            config=EstimatorConfig(jobs=self.jobs),
            version_cache=self.version_cache,
        )
        return self._register(name, publisher, config)

    def _register(
        self, name: str, publisher: IncrementalPublisher, config: dict[str, Any]
    ) -> StreamHost:
        host = StreamHost(
            name,
            publisher,
            config,
            coalesce_seconds=self._coalesce_seconds,
            max_queue_batches=self._max_queue_batches,
            max_queued_rows=self._max_queued_rows,
            slow_publish_seconds=self._slow_publish_seconds,
        )
        with self._lock:
            self._hosts[name] = host
        return host

    def close(self) -> None:
        """Stop every worker and release every shard lock."""
        for host in self.hosts():
            host.close()
        with self._lock:
            self._hosts.clear()
