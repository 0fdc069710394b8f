"""The serving daemon under a mixed multi-stream workload (PR-gated).

Starts a real :class:`repro.serve.ServeApp` on an ephemeral port and drives
it over actual HTTP: several streams are created, writer threads fire
append/delete/update batches at every stream concurrently (so the per-stream
workers get genuine coalescing pressure), and reader threads hammer
historical versions and audit reports the whole time.  Two numbers are
gated:

* **mutations/sec** - accepted mutation batches per second of wall clock
  across all streams (each batch individually acknowledged with its
  published version; coalescing means batches >= publishes);
* **p99 read latency** - the 99th percentile of historical-version and
  audit GETs issued *while publications are in flight*.  Reads are answered
  lock-free from immutable versions, so this must stay flat however busy
  the writers are.

Scale knobs:

* ``REPRO_BENCH_SERVE_STREAMS``    - hosted streams (default 3);
* ``REPRO_BENCH_SERVE_SEED_ROWS``  - seed rows per stream (default 1000);
* ``REPRO_BENCH_SERVE_BATCH_ROWS`` - rows per append batch (default 60);
* ``REPRO_BENCH_SERVE_ROUNDS``     - mutation rounds per stream (default 4;
  each round fires one append, one delete and one update concurrently);
* ``REPRO_BENCH_SERVE_READERS``    - concurrent reader threads (default 4);
* ``REPRO_BENCH_SERVE_COALESCE_MS``- the daemon's coalescing window (default 25);
* ``REPRO_BENCH_SERVE_MIN_MUTATIONS_PER_SECOND`` - throughput gate (default 0.5);
* ``REPRO_BENCH_SERVE_MAX_READ_P99_SECONDS``     - latency gate (default 0.5);
* ``REPRO_JOBS`` - contraction threads inside each stream's prior backend.
  The resolved count is recorded as a ``jobs`` metric and, when it is not 1,
  suffixed onto the section name so runs at different thread counts land in
  distinct sections (CI pins ``REPRO_JOBS=1`` to keep the committed section
  names stable).

The measured numbers land in ``BENCH_serve.json`` (section
``streams-<n>-seed-<rows>-rounds-<k>x<batch>``); CI regenerates the file at
a tiny size and gates it with ``benchmarks/check_regression.py``, whose
``*_per_second`` keys are floors and ``*_seconds`` keys are ceilings.

The second bench in this file is the **saturation** bench: N streams, each
flooded by several concurrent writers against a deliberately tiny bounded
queue.  It measures aggregate accepted mutations/sec
(``mutations_per_second``, a floor), the 429 rate under overload
(``overload_rejected_frac``, gated as a symmetric band - backpressure must
keep firing), and the p99 of reads issued while publications are in flight
(a ceiling).  Saturation knobs::

    REPRO_BENCH_SERVE_SAT_STREAMS        hosted streams (default 4)
    REPRO_BENCH_SERVE_SAT_SEED_ROWS      seed rows per stream (default 240)
    REPRO_BENCH_SERVE_SAT_BATCH_ROWS     rows per append batch (default 40)
    REPRO_BENCH_SERVE_SAT_WRITERS        writer threads per stream (default 3)
    REPRO_BENCH_SERVE_SAT_ROUNDS         batches per writer (default 3)
    REPRO_BENCH_SERVE_SAT_READERS        in-flight reader threads (default 2)
    REPRO_BENCH_SERVE_SAT_MAX_READ_P99_SECONDS  latency ceiling (default 1.0)
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import urllib.error
import urllib.request

from conftest import write_bench_json

from repro.data.adult import generate_adult
from repro.knowledge.parallel import default_jobs
from repro.serve import ServeApp

STREAMS = int(os.environ.get("REPRO_BENCH_SERVE_STREAMS", "3"))
SEED_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_SEED_ROWS", "1000"))
BATCH_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_BATCH_ROWS", "60"))
ROUNDS = int(os.environ.get("REPRO_BENCH_SERVE_ROUNDS", "4"))
READERS = int(os.environ.get("REPRO_BENCH_SERVE_READERS", "4"))
COALESCE_MS = float(os.environ.get("REPRO_BENCH_SERVE_COALESCE_MS", "25"))
MIN_MUTATIONS_PER_SECOND = float(
    os.environ.get("REPRO_BENCH_SERVE_MIN_MUTATIONS_PER_SECOND", "0.5")
)
MAX_READ_P99_SECONDS = float(
    os.environ.get("REPRO_BENCH_SERVE_MAX_READ_P99_SECONDS", "0.5")
)

SAT_STREAMS = int(os.environ.get("REPRO_BENCH_SERVE_SAT_STREAMS", "4"))
SAT_SEED_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_SAT_SEED_ROWS", "240"))
SAT_BATCH_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_SAT_BATCH_ROWS", "40"))
SAT_WRITERS = int(os.environ.get("REPRO_BENCH_SERVE_SAT_WRITERS", "3"))
SAT_ROUNDS = int(os.environ.get("REPRO_BENCH_SERVE_SAT_ROUNDS", "3"))
SAT_READERS = int(os.environ.get("REPRO_BENCH_SERVE_SAT_READERS", "2"))
SAT_MAX_READ_P99_SECONDS = float(
    os.environ.get("REPRO_BENCH_SERVE_SAT_MAX_READ_P99_SECONDS", "1.0")
)
# Contraction threads are a runtime knob (bitwise-identical output), but they
# change what a section *measures*: non-default counts get their own section.
JOBS = default_jobs()
_JOBS_SUFFIX = "" if JOBS == 1 else f"-jobs{JOBS}"

#: A flooded stream's queue: one slot, so concurrent writers *must* see 429s.
SAT_QUEUE_BATCHES = 1
#: Writer backoff on 429.  Deliberately much shorter than the daemon's
#: Retry-After hint (whole seconds, floored at 1): the bench wants maximum
#: sustained pressure on the queue bound, not polite pacing - sleeping the
#: full hint would serialize the writers and measure the sleep, not the
#: daemon.  The hint itself is still asserted present on every 429.
SAT_RETRY_SLEEP = 0.05

#: One stream config for every hosted stream (modest k keeps versions fast).
CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2}


def _json_rows(table):
    return [
        {
            name: (value.item() if hasattr(value, "item") else value)
            for name, value in table.row(index).items()
        }
        for index in range(table.n_rows)
    ]


class _Client:
    """Minimal JSON-over-HTTP client against the benched daemon."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method: str, path: str, payload=None, timeout=600):
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.base + path, data=body, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def request_full(self, method: str, path: str, payload=None, timeout=600):
        """Like :meth:`request` plus the raw body bytes and response headers."""
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.base + path, data=body, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                raw = response.read()
                return response.status, json.loads(raw), raw, dict(response.headers)
        except urllib.error.HTTPError as error:
            raw = error.read()
            return error.code, json.loads(raw), raw, dict(error.headers)


def test_serve_mixed_workload_throughput_and_read_latency(tmp_path):
    app = ServeApp(tmp_path / "serve-data", port=0, coalesce_ms=COALESCE_MS)
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    loop_thread.start()
    asyncio.run_coroutine_threadsafe(app.start(), loop).result(60)
    client = _Client(app.port)

    rows_per_stream = SEED_ROWS + ROUNDS * BATCH_ROWS
    names = [f"stream-{index}" for index in range(STREAMS)]
    pools = {}
    try:
        # -- create every stream (not measured: one-off seeding) -----------------------
        for index, name in enumerate(names):
            table = generate_adult(rows_per_stream, seed=100 + index)
            rows = _json_rows(table)
            pools[name] = rows[SEED_ROWS:]
            status, payload = client.request(
                "POST", "/streams", {"name": name, "rows": rows[:SEED_ROWS],
                                     "config": CONFIG},
            )
            assert status == 201, payload

        # -- mixed read/write phase (measured) ------------------------------------------
        errors: list[str] = []
        batches_done = 0
        batches_lock = threading.Lock()
        read_latencies: list[float] = []
        stop_reading = threading.Event()

        def mutate(name: str) -> None:
            nonlocal batches_done
            pool = pools[name]
            for round_index in range(ROUNDS):
                batch = pool[round_index * BATCH_ROWS:(round_index + 1) * BATCH_ROWS]
                third = max(1, len(batch) // 3)
                low = round_index * 7
                # One append, one delete and one update in flight together:
                # the worker drains them into a single coalesced publish.
                requests = [
                    ("append", {"rows": batch}),
                    ("delete", {"positions": list(range(low, low + third))}),
                    (
                        "update",
                        {
                            "positions": list(range(low + third, low + 2 * third)),
                            "rows": batch[:third],
                        },
                    ),
                ]
                threads = []
                outcomes = []

                def fire(kind, payload):
                    status, body = client.request(
                        "POST", f"/streams/{name}/{kind}", payload
                    )
                    outcomes.append((kind, status, body))

                for kind, payload in requests:
                    thread = threading.Thread(target=fire, args=(kind, payload))
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join()
                for kind, status, body in outcomes:
                    if status != 200:
                        errors.append(f"{name}/{kind}: {status} {body}")
                with batches_lock:
                    batches_done += len(requests)

        def read(worker: int) -> None:
            index = worker
            while not stop_reading.is_set():
                name = names[index % len(names)]
                path = (
                    f"/streams/{name}/versions/0"
                    if index % 2
                    else f"/streams/{name}/audit"
                )
                start = time.perf_counter()
                status, body = client.request("GET", path)
                elapsed = time.perf_counter() - start
                if status != 200:
                    errors.append(f"read {path}: {status} {body}")
                read_latencies.append(elapsed)
                index += 1

        writers = [threading.Thread(target=mutate, args=(name,)) for name in names]
        readers = [threading.Thread(target=read, args=(worker,)) for worker in range(READERS)]
        wall_start = time.perf_counter()
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        write_wall_seconds = time.perf_counter() - wall_start
        stop_reading.set()
        for thread in readers:
            thread.join()

        assert not errors, errors[:5]
        assert batches_done == STREAMS * ROUNDS * 3

        # -- collect daemon-side numbers -------------------------------------------------
        status, metrics = client.request("GET", "/metrics")
        assert status == 200
        publishes = sum(
            stream["counters"]["publishes"] for stream in metrics["streams"].values()
        )
        failed = sum(
            stream["counters"]["failed_batches"]
            for stream in metrics["streams"].values()
        )
        assert failed == 0
    finally:
        asyncio.run_coroutine_threadsafe(app.stop(), loop).result(120)
        loop.call_soon_threadsafe(loop.stop)
        loop_thread.join(timeout=10)
        loop.close()

    mutations_per_second = batches_done / write_wall_seconds
    ordered = sorted(read_latencies)

    def percentile(q: float) -> float:
        rank = min(len(ordered), max(1, -(-(q * len(ordered)) // 100)))
        return ordered[int(rank) - 1]

    read_p50, read_p99 = percentile(50.0), percentile(99.0)
    coalesce_ratio = batches_done / publishes if publishes else float("nan")
    print(
        f"\nserve: {STREAMS} streams seed={SEED_ROWS} {ROUNDS} rounds x "
        f"{BATCH_ROWS} rows  mutations={batches_done} publishes={publishes} "
        f"(coalesce {coalesce_ratio:.1f}x)  {mutations_per_second:.2f} mutations/s  "
        f"reads={len(ordered)} p50={read_p50 * 1000:.1f}ms p99={read_p99 * 1000:.1f}ms"
    )
    write_bench_json(
        "serve",
        f"streams-{STREAMS}-seed-{SEED_ROWS}-rounds-{ROUNDS}x{BATCH_ROWS}"
        f"{_JOBS_SUFFIX}",
        {
            "streams": STREAMS,
            "seed_rows": SEED_ROWS,
            "batch_rows": BATCH_ROWS,
            "rounds": ROUNDS,
            "readers": READERS,
            "jobs": JOBS,
            "mutation_batches": batches_done,
            "publishes": publishes,
            "coalesce_ratio": coalesce_ratio,
            "reads": len(ordered),
            "mutations_per_second": mutations_per_second,
            "read_p50_seconds": read_p50,
            "read_p99_seconds": read_p99,
        },
    )

    # Coalescing means a burst of batches never needs a publish each.
    assert publishes <= batches_done
    assert mutations_per_second >= MIN_MUTATIONS_PER_SECOND, (
        f"the daemon only sustained {mutations_per_second:.2f} mutation "
        f"batches/s (required: {MIN_MUTATIONS_PER_SECOND:g})"
    )
    assert read_p99 <= MAX_READ_P99_SECONDS, (
        f"p99 read latency {read_p99 * 1000:.1f}ms while publications were in "
        f"flight (allowed: {MAX_READ_P99_SECONDS * 1000:g}ms)"
    )


# -- saturation: a flood of writers against one-slot queues --------------------------------


def test_serve_saturation_thread_flood(tmp_path):
    """Flood N streams through one-slot queues; measure throughput under 429s."""
    app = ServeApp(
        tmp_path / "sat-data",
        port=0,
        coalesce_ms=COALESCE_MS,
        max_queue_batches=SAT_QUEUE_BATCHES,
    )
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    loop_thread.start()
    asyncio.run_coroutine_threadsafe(app.start(), loop).result(60)
    client = _Client(app.port)

    names = [f"stream-{index}" for index in range(SAT_STREAMS)]
    batches_per_stream = 1 + SAT_WRITERS * SAT_ROUNDS  # 1 warmup + measured
    rows_per_stream = SAT_SEED_ROWS + batches_per_stream * SAT_BATCH_ROWS
    try:
        # -- seed + warmup (not measured) ------------------------------------------------
        slices: dict[str, list] = {}
        for index, name in enumerate(names):
            rows = _json_rows(generate_adult(rows_per_stream, seed=300 + index))
            status, payload = client.request(
                "POST", "/streams",
                {"name": name, "rows": rows[:SAT_SEED_ROWS], "config": CONFIG},
            )
            assert status == 201, payload
            pool = rows[SAT_SEED_ROWS:]
            slices[name] = [
                pool[i * SAT_BATCH_ROWS:(i + 1) * SAT_BATCH_ROWS]
                for i in range(batches_per_stream)
            ]
        for name in names:
            # The warmup publish absorbs one-off costs that are real but not
            # steady-state (a stream's first incremental publish).
            status, payload = client.request(
                "POST", f"/streams/{name}/append", {"rows": slices[name][0]}
            )
            assert status == 200, payload

        # -- measured flood ---------------------------------------------------------------
        errors: list[str] = []
        accepted = 0
        rejected = 0
        retry_after_missing = 0
        counter_lock = threading.Lock()
        read_latencies: list[float] = []
        version0_bodies: dict[str, set] = {name: set() for name in names}
        stop_reading = threading.Event()

        def write(name: str, writer: int) -> None:
            nonlocal accepted, rejected, retry_after_missing
            for round_index in range(SAT_ROUNDS):
                batch = slices[name][1 + writer * SAT_ROUNDS + round_index]
                while True:
                    status, body, _, headers = client.request_full(
                        "POST", f"/streams/{name}/append", {"rows": batch}
                    )
                    if status == 200:
                        with counter_lock:
                            accepted += 1
                        break
                    if status == 429:
                        with counter_lock:
                            rejected += 1
                            if "Retry-After" not in headers:
                                retry_after_missing += 1
                        time.sleep(SAT_RETRY_SLEEP)
                        continue
                    errors.append(f"{name}/append: {status} {body}")
                    return

        def read(worker: int) -> None:
            index = worker
            while not stop_reading.is_set():
                name = names[index % len(names)]
                start = time.perf_counter()
                status, body, raw, _ = client.request_full(
                    "GET", f"/streams/{name}/versions/0"
                )
                elapsed = time.perf_counter() - start
                if status != 200:
                    errors.append(f"read {name}: {status} {body}")
                else:
                    version0_bodies[name].add(raw)
                read_latencies.append(elapsed)
                index += 1

        writers = [
            threading.Thread(target=write, args=(name, writer))
            for name in names
            for writer in range(SAT_WRITERS)
        ]
        readers = [
            threading.Thread(target=read, args=(worker,))
            for worker in range(SAT_READERS)
        ]
        wall_start = time.perf_counter()
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        wall_seconds = time.perf_counter() - wall_start
        stop_reading.set()
        for thread in readers:
            thread.join()

        assert not errors, errors[:5]
        assert accepted == SAT_STREAMS * SAT_WRITERS * SAT_ROUNDS
        # Overload is the point: the tiny queue must have pushed back, and
        # every rejection must have carried its pacing hint.
        assert rejected > 0, "the saturation flood never hit the queue bound"
        assert retry_after_missing == 0
        # Mid-publication reads return the immutable version byte-for-byte.
        for name in names:
            assert len(version0_bodies[name]) <= 1, (
                f"version 0 of {name} was served with differing bytes"
            )

        status, metrics = client.request("GET", "/metrics")
        assert status == 200
        streams = metrics["streams"]
        assert sum(s["counters"]["rejected_batches"] for s in streams.values()) == rejected
        assert sum(s["counters"]["failed_batches"] for s in streams.values()) == 0
        assert all(s["queue_high_water"] <= SAT_QUEUE_BATCHES for s in streams.values())
    finally:
        asyncio.run_coroutine_threadsafe(app.stop(), loop).result(120)
        loop.call_soon_threadsafe(loop.stop)
        loop_thread.join(timeout=10)
        loop.close()

    ordered = sorted(read_latencies)
    read_p99 = (
        ordered[min(len(ordered), max(1, -(-(99 * len(ordered)) // 100))) - 1]
        if ordered
        else 0.0
    )
    mutations_per_second = accepted / wall_seconds
    overload_rejected_frac = rejected / (rejected + accepted)
    print(
        f"\nserve saturation: {SAT_STREAMS} streams x {SAT_WRITERS} writers x "
        f"{SAT_ROUNDS} rounds ({SAT_BATCH_ROWS} rows, queue bound "
        f"{SAT_QUEUE_BATCHES})  {mutations_per_second:.2f} mut/s  "
        f"429 frac {overload_rejected_frac:.2f}  "
        f"in-flight read p99 {read_p99 * 1000:.1f}ms"
    )
    write_bench_json(
        "serve",
        f"saturation-streams-{SAT_STREAMS}-writers-{SAT_WRITERS}x{SAT_ROUNDS}"
        f"x{SAT_BATCH_ROWS}{_JOBS_SUFFIX}",
        {
            "streams": SAT_STREAMS,
            "seed_rows": SAT_SEED_ROWS,
            "batch_rows": SAT_BATCH_ROWS,
            "writers_per_stream": SAT_WRITERS,
            "jobs": JOBS,
            "rounds": SAT_ROUNDS,
            "max_queue_batches": SAT_QUEUE_BATCHES,
            "accepted_batches": accepted,
            "rejected_batches": rejected,
            "reads": len(ordered),
            "mutations_per_second": mutations_per_second,
            "overload_rejected_frac": overload_rejected_frac,
            "inflight_read_p99_seconds": read_p99,
        },
    )

    assert read_p99 <= SAT_MAX_READ_P99_SECONDS, (
        f"p99 in-flight read latency {read_p99 * 1000:.1f}ms "
        f"(allowed: {SAT_MAX_READ_P99_SECONDS * 1000:g}ms)"
    )
