"""Bounded write queues: 429 + Retry-After, queue metrics, chunked bodies.

The backpressure contract from the issue: a mutation that would push a
stream's queue past ``max_queue_batches`` / ``max_queued_rows`` is rejected
*immediately* with 429 and a ``Retry-After`` hint instead of buffering
without bound - and a client that honors the hint loses nothing: its
retried batch publishes into the same stream it would have reached
unthrottled.  The queue's pressure history (high-water marks, cumulative
rejected count) stays visible in ``/metrics`` after the burst passes.
"""

import threading

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig
from repro.privacy.models import BTPrivacy
from repro.serve import Response, StreamRegistry, TooManyRequests
from repro.stream import IncrementalPublisher

FAST_CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2, "max_cells": 20000}

SEED_ROWS = 260
SCHEMA = adult_schema()
ROWS = generate_adult(320, seed=11).rows()


def _table(rows):
    return MicrodataTable.from_rows(SCHEMA, rows)


SEED_TABLE = _table(ROWS[:SEED_ROWS])


def _registry(tmp_path, **kwargs):
    return StreamRegistry(tmp_path / "data", coalesce_ms=0.0, **kwargs)


# -- registry-level backpressure -----------------------------------------------------------


def test_full_queue_rejects_with_429_and_retry_hint(tmp_path):
    registry = _registry(tmp_path, max_queue_batches=1)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        host.pause()
        batch_a = _table(ROWS[SEED_ROWS:SEED_ROWS + 20])
        batch_b = _table(ROWS[SEED_ROWS + 20:SEED_ROWS + 40])
        queued = host.submit(("append", batch_a))
        with pytest.raises(TooManyRequests) as excinfo:
            host.submit(("append", batch_b))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1
        assert excinfo.value.headers()["Retry-After"] == str(
            excinfo.value.retry_after
        )
        # The rejection is observable after the fact...
        assert host.metrics.counters.rejected_batches == 1
        stats = host.queue_stats()
        assert stats["queue_high_water"] == 1
        assert stats["max_queue_batches"] == 1
        # ... and rejected != poisoned: the stream stays healthy.
        assert host.poisoned is None
        host.unpause()
        assert queued.result(timeout=300).version == 1
    finally:
        registry.close()


def test_row_bound_rejects_large_backlogs(tmp_path):
    registry = _registry(tmp_path, max_queued_rows=25)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        host.pause()
        host.submit(("append", _table(ROWS[SEED_ROWS:SEED_ROWS + 20])))
        # 20 rows queued; another 20 would cross the 25-row bound...
        with pytest.raises(TooManyRequests):
            host.submit(("append", _table(ROWS[SEED_ROWS + 20:SEED_ROWS + 40])))
        # ... but a small delete (3 rows of accounting) still fits.
        future = host.submit(("delete", [0, 1, 2]))
        assert host.queue_stats()["queue_depth_rows"] == 23
        host.unpause()
        assert future.result(timeout=300).version == 1
    finally:
        registry.close()


def test_rejected_then_retried_batch_reaches_same_final_version(tmp_path):
    """A 429'd client that retries ends up exactly where an unthrottled
    client would have: the throttle costs availability, never data."""
    batch_a = _table(ROWS[SEED_ROWS:SEED_ROWS + 20])
    batch_b = _table(ROWS[SEED_ROWS + 20:SEED_ROWS + 40])

    registry = _registry(tmp_path, max_queue_batches=1)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        host.pause()
        first = host.submit(("append", batch_a))
        with pytest.raises(TooManyRequests):
            host.submit(("append", batch_b))
        host.unpause()
        first.result(timeout=300)
        # The retry (after the in-flight publication drained the queue).
        final = host.submit(("append", batch_b)).result(timeout=300)
    finally:
        registry.close()

    twin = IncrementalPublisher(
        _table(ROWS[:SEED_ROWS]),
        BTPrivacy(FAST_CONFIG["b"], FAST_CONFIG["t"]),
        k=FAST_CONFIG["k"],
        config=EstimatorConfig(max_cells=FAST_CONFIG["max_cells"]),
    )
    twin.publish()
    twin.append(batch_a)
    twin.append(batch_b)
    expected = twin.store.latest()
    assert final.version == expected.version == 2
    assert final.n_rows == expected.n_rows
    assert all(
        np.array_equal(a, b)
        for a, b in zip(final.release.groups, expected.release.groups)
    )


# -- the same contract over real HTTP ------------------------------------------------------


def test_http_429_carries_retry_after_and_metrics_remember(live_server, adult_rows):
    server = live_server(coalesce_ms=0.0, max_queue_batches=1)
    status, payload, _ = server.request(
        "POST",
        "/streams",
        {"name": "census", "rows": adult_rows[:SEED_ROWS], "config": FAST_CONFIG},
    )
    assert status == 201

    host = server.app.registry.get("census")
    host.pause()
    results = {}

    def blocked_append():
        results["first"] = server.request(
            "POST", "/streams/census/append", {"rows": adult_rows[SEED_ROWS:SEED_ROWS + 20]}
        )

    writer = threading.Thread(target=blocked_append)
    writer.start()
    # Wait until the first append actually occupies the queue slot.
    deadline_reached = False
    for _ in range(500):
        if host.queue_depth >= 1:
            deadline_reached = True
            break
        threading.Event().wait(0.01)
    assert deadline_reached

    retry_rows = adult_rows[SEED_ROWS + 20:SEED_ROWS + 40]
    status, payload, headers = server.request_with_headers(
        "POST", "/streams/census/append", {"rows": retry_rows}
    )
    assert status == 429
    assert payload["error"] == "Too Many Requests"
    assert "queue is full" in payload["message"]
    assert int(headers["Retry-After"]) >= 1

    host.unpause()
    writer.join(timeout=300)
    assert results["first"][0] == 200

    # Honoring Retry-After: the retried batch lands as the next version.
    status, payload, _ = server.request(
        "POST", "/streams/census/append", {"rows": retry_rows}
    )
    assert status == 200
    assert payload["version"]["version"] == 2

    # The burst is over, but /metrics still shows the pressure history.
    status, metrics, _ = server.request("GET", "/metrics")
    assert status == 200
    stream = metrics["streams"]["census"]
    assert stream["queue_depth"] == 0
    assert stream["queue_high_water"] == 1
    assert stream["counters"]["rejected_batches"] == 1
    assert stream["versions"] == 3


# -- chunked streaming bodies --------------------------------------------------------------


def _span_tree(depth):
    """A nested span-trace-like document (many small dicts and floats)."""
    return {
        "name": f"span-{depth}",
        "start_s": depth / 7.0,
        "duration_s": 1.0 / (depth + 3),
        "attributes": {"rows": depth * 11, "label": "é" * depth, "ratio": float("nan")},
        "children": [_span_tree(depth + 1) for _ in range(2)] if depth < 6 else [],
    }


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": [{"index": i, "text": "x" * 40} for i in range(500)]},
        # Containers past the whole-encode limit next to small ones, tuples,
        # a non-string-keyed dict and a deep trace.
        {
            "trace": _span_tree(0),
            "lineage": [{"version": i, "groups": (i, -0.0, None)} for i in range(1500)],
            "codes": {1: "one", 2: "two"},
            "risks": [i / 3.0 for i in range(3000)],
        },
    ],
)
def test_body_chunks_concatenate_byte_identically(payload):
    response = Response(200, payload, stream=True)
    chunks = list(response.body_chunks(chunk_bytes=1024))
    assert len(chunks) > 1
    assert all(len(chunk) >= 1024 for chunk in chunks[:-1])
    assert b"".join(chunks) == response.body()
