"""The serving daemon: many streams, coalesced writes, lock-free reads.

``repro serve`` turns the incremental publication engine into a long-running
multi-tenant service: a ``StreamRegistry`` hosts any number of named streams,
each backed by its own ``IncrementalPublisher`` and a disk ``ReleaseStore``
shard under a common data dir.  Writes to one stream are serialized through
a per-stream worker that *coalesces* every append/delete/update batch queued
within one tick into a single published version (the merged version is
numerically identical to publishing the batches one by one), while reads -
any historical version, the lineage, a skyline-audit report - are answered
lock-free from immutable published versions, even while a publication is in
flight.

This script is the whole lifecycle over real HTTP:

1. start a daemon on an ephemeral port (in-process; ``repro serve
   --data-dir ...`` runs the same app from the command line),
2. create a stream from seed rows (POST /streams publishes version 0),
3. fire an append, a deletion and a correction *concurrently* so the worker
   coalesces them into one version,
4. read back the lineage, a historical version and the latest skyline-audit
   report, plus the daemon's /metrics view and the span-derived per-stage
   breakdown (prior/partition/audit timings) a freshly published version
   carries,
5. restart the daemon on the same data dir and show every stream resumed
   from disk with its version numbering intact,
6. restart once more with a one-slot write queue (``--max-queue-batches 1``
   on the CLI), flood the stream with concurrent writers, and show a
   well-behaved client: on 429 it reads the ``Retry-After`` header, sleeps
   that many seconds and retries - backpressure costs it time, never data.

Run with:  python examples/serve_client.py
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.data.adult import generate_adult
from repro.obs.log import configure
from repro.serve import ServeApp

SEED_ROWS = 600
BATCH_ROWS = 80


class Daemon:
    """An in-process daemon on an ephemeral port (the CLI runs the same app)."""

    def __init__(self, data_dir: Path, **app_kwargs):
        self.app = ServeApp(data_dir, port=0, coalesce_ms=50.0, **app_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self.app.start(), self._loop).result(30)

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.app.port}{path}", data=body, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def request_with_headers(self, method: str, path: str, payload=None):
        """Like :meth:`request`, also returning the response headers -
        a 429's ``Retry-After`` is how the daemon paces a flooding client."""
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.app.port}{path}", data=body, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read()), dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.app.stop(), self._loop).result(60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


def json_rows(table):
    return [
        {
            name: (value.item() if hasattr(value, "item") else value)
            for name, value in table.row(index).items()
        }
        for index in range(table.n_rows)
    ]


def main() -> None:
    # Structured logging, exactly as `repro serve --log-format json
    # --log-level warning` wires it: throttled requests and slow publishes
    # land on stderr as one JSON object per line, each carrying the
    # request's trace id (also echoed in the X-Repro-Trace-Id header).
    configure(level="warning", log_format="json")
    rows = json_rows(generate_adult(SEED_ROWS + 5 * BATCH_ROWS, seed=42))
    data_dir = Path(tempfile.mkdtemp(prefix="repro-serve-"))

    # -- 1-2. start the daemon, create a stream over HTTP -------------------------------
    daemon = Daemon(data_dir)
    print(f"daemon listening on port {daemon.app.port}, data dir {data_dir}")
    status, body = daemon.request(
        "POST", "/streams",
        {
            "name": "census",
            "rows": rows[:SEED_ROWS],
            "config": {"model": "bt", "b": 0.3, "t": 0.25, "k": 4,
                       "skyline": [[0.1, 0.3], [0.3, 0.25]]},
        },
    )
    assert status == 201, body
    stream = body["stream"]
    print(f"created stream {stream['name']!r}: {stream['rows']} rows -> "
          f"{stream['groups']} groups (satisfied: {stream['satisfied']})")

    # -- 3. concurrent mutations coalesce into one version ------------------------------
    # The three requests land inside one coalescing tick, so the worker
    # publishes a single merged version; each response still reports the
    # (shared) version that covers its batch.
    payloads = [
        ("append", {"rows": rows[SEED_ROWS:SEED_ROWS + BATCH_ROWS]}),
        ("delete", {"positions": list(range(25))}),
        ("update", {"positions": list(range(25, 45)),
                    "rows": rows[SEED_ROWS + BATCH_ROWS:SEED_ROWS + BATCH_ROWS + 20]}),
    ]
    outcomes = []

    def fire(kind, payload):
        outcomes.append((kind, *daemon.request("POST", f"/streams/census/{kind}", payload)))

    threads = [threading.Thread(target=fire, args=(kind, payload))
               for kind, payload in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for kind, status, body in outcomes:
        assert status == 200, (kind, body)
        delta = body["version"]["delta"]
        print(f"{kind}: published v{body['version']['version']} "
              f"(coalesced {delta['coalesced_operations']} operation(s): "
              f"+{delta['appended_rows']} -{delta['deleted_rows']} "
              f"~{delta['updated_rows']} rows)")

    # -- 4. lock-free reads: lineage, history, audit, metrics ---------------------------
    status, body = daemon.request("GET", "/streams/census/versions")
    print(f"lineage: {len(body['versions'])} versions")
    status, body = daemon.request("GET", "/streams/census/versions/0")
    print(f"version 0 (immutable history): {body['version']['rows']} rows, "
          f"{body['version']['groups']} groups")
    # A version published by this daemon carries its publish trace: the
    # span-derived stage breakdown says where the publication time went.
    status, body = daemon.request("GET", "/streams/census/versions/1")
    stages = body["stages"]
    breakdown = ", ".join(
        f"{name} {seconds * 1e3:.1f}ms"
        for name, seconds in sorted(stages["stages"].items())
    )
    print(f"v1 stage breakdown ({stages['publish']}, "
          f"{stages['duration_s'] * 1e3:.1f}ms total): {breakdown}")
    status, body = daemon.request("GET", "/streams/census/audit")
    worst = max(
        (entry["worst_case_risk"] for entry in body["audit"]["adversaries"]),
        default=0.0,
    )
    print(f"latest audit (v{body['version']}): "
          f"{'satisfied' if body['audit']['satisfied'] else 'BREACHED'}, "
          f"worst-case knowledge gain {worst:.3f} "
          f"across {body['audit']['skyline_size']} adversaries")
    status, body = daemon.request("GET", "/metrics")
    counters = body["streams"]["census"]["counters"]
    print(f"metrics: {counters['publishes']} publishes covered "
          f"{counters['coalesced_operations']} operations; server handled "
          f"{body['server']['counters']['requests']} requests")

    # -- 5. restart: every stream resumes from its disk shard ---------------------------
    daemon.stop()
    daemon = Daemon(data_dir)
    status, body = daemon.request("GET", "/streams/census")
    print(f"after restart: stream {body['stream']['name']!r} resumed with "
          f"{body['stream']['versions']} versions")
    status, body = daemon.request(
        "POST", "/streams/census/append",
        {"rows": rows[SEED_ROWS + BATCH_ROWS + 20:SEED_ROWS + 2 * BATCH_ROWS]},
    )
    assert status == 200, body
    print(f"append after resume: published v{body['version']['version']} "
          f"(numbering continued across the restart)")

    # -- 6. bounded-queue backpressure -------------------------------------------------
    # The same data dir, now served with a deliberately tiny write queue.
    # Three writers flood the stream concurrently; each one honors
    # Retry-After when throttled.
    daemon.stop()
    daemon = Daemon(data_dir, max_queue_batches=1)
    print("\nrestarted with max_queue_batches=1 "
          "(CLI: repro serve --max-queue-batches 1)")
    flood = [
        rows[SEED_ROWS + (2 + writer) * BATCH_ROWS:
             SEED_ROWS + (3 + writer) * BATCH_ROWS]
        for writer in range(3)
    ]
    throttles = []
    lock = threading.Lock()

    def polite_append(writer: int, batch) -> None:
        while True:
            status, body, headers = daemon.request_with_headers(
                "POST", "/streams/census/append", {"rows": batch}
            )
            if status == 200:
                print(f"writer {writer}: published v{body['version']['version']}")
                return
            assert status == 429, (status, body)
            wait = int(headers["Retry-After"])
            with lock:
                throttles.append(wait)
            print(f"writer {writer}: 429 (queue full), honoring "
                  f"Retry-After: {wait}s")
            time.sleep(wait)

    writers = [
        threading.Thread(target=polite_append, args=(writer, batch))
        for writer, batch in enumerate(flood)
    ]
    for thread in writers:
        thread.start()
    for thread in writers:
        thread.join()
    status, body = daemon.request("GET", "/metrics")
    stream = body["streams"]["census"]
    print(f"backpressure: {stream['counters']['rejected_batches']} rejected "
          f"batch(es) ({len(throttles)} throttle(s) honored), queue high-water "
          f"{stream['queue_high_water']}/{stream['max_queue_batches']}; every "
          f"batch still landed - {stream['versions']} versions on disk")
    daemon.stop()


if __name__ == "__main__":
    main()
