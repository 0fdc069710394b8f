"""Workload ``serve-mixed``: ``repro serve`` at its defaults under one writer and one reader.

The daemon runs in its own process and hosts two streams of 5k seed rows
(default stream config: ``bt(b=0.3, t=0.2)``, k=4).  This process is the
only client and opens exactly two keep-alive connections, both closed loops:
the writer rotates append/delete/update batches across the two streams, the
reader GETs a random published version and then its audit report.  Writes
publish through the stream layer; reads decode through the store's
``VersionCache`` and never touch the estimator.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from harness import SRC_DIR, Measurement, has_tail, median, tail
from checks import check_acks, check_lineage
from stream_lifecycle import in_domain_rows

SEED_ROWS = 5_000
POOL_ROWS = 2_000
APPEND_ROWS = 50
DELETE_ROWS = 50
UPDATE_ROWS = 25
STREAMS = ("s0", "s1")
KINDS = ("append", "delete", "update")
SETUPS = 3
START_TIMEOUT = 60.0
# The daemon keeps this many recent samples per latency histogram.
HISTOGRAM_WINDOW = 4096


def json_rows(table) -> list[dict]:
    return [
        {name: (value.item() if hasattr(value, "item") else value)
         for name, value in table.row(index).items()}
        for index in range(table.n_rows)
    ]


def prepare(seed: int, directory: Path) -> None:
    from repro.data.adult import generate_adult

    table = generate_adult(len(STREAMS) * SEED_ROWS + POOL_ROWS, seed=seed)
    seeds = [table.select(np.arange(i * SEED_ROWS, (i + 1) * SEED_ROWS))
             for i in range(len(STREAMS))]
    pool = table.select(np.arange(len(STREAMS) * SEED_ROWS, table.n_rows))
    for seed_table in seeds:
        pool = pool.select(in_domain_rows(seed_table, pool))
    payload = {"seeds": [json_rows(t) for t in seeds], "pool": json_rows(pool)}
    (directory / "inputs.json").write_text(json.dumps(payload))


class Daemon:
    """``python -m repro serve`` in its own process, logging into the run directory."""

    def __init__(self, data_dir: Path, log_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        self._stdout = log_dir / f"{data_dir.name}.out"
        self._stderr = log_dir / f"{data_dir.name}.err"
        with open(self._stdout, "wb") as out, open(self._stderr, "wb") as err:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir),
                 "--port", "0"],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            match = re.search(rb"listening on http://[^:]+:(\d+)", self._stdout.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"the daemon did not come up: {self._stderr.read_text()[-2000:]}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> float:
        """Interrupt the daemon (it closes every stream), reap it, return its peak RSS in MiB.

        Reaping with ``wait4`` gives this daemon's own lifetime peak; a daemon
        that already exited was reaped by ``poll`` and reports 0.
        """
        if self.process.poll() is not None:
            return 0.0
        self.process.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self.process.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024
            if time.monotonic() > deadline:
                self.process.kill()
                deadline = float("inf")
            time.sleep(0.01)


def call(connection: http.client.HTTPConnection, method: str, path: str, payload=None):
    """One request on a keep-alive connection: ``(status, decoded JSON body)``."""
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    return response.status, (json.loads(data) if data else None)


def start_daemon(run: Measurement, inputs: dict, data_dir: Path, log_dir: Path) -> Daemon:
    """Daemon start to a healthy ``/healthz`` plus both streams created: one set-up sample."""
    start = time.perf_counter()
    daemon = Daemon(data_dir, log_dir)
    try:
        connection = daemon.connect()
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                if call(connection, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                connection.close()
            if time.monotonic() > deadline:
                raise RuntimeError("the daemon never reported healthy")
            time.sleep(0.01)
        for name, rows in zip(STREAMS, inputs["seeds"]):
            status, body = call(connection, "POST", "/streams", {"name": name, "rows": rows})
            if status != 201:
                raise RuntimeError(f"creating stream {name} failed: {status} {body}")
        connection.close()
    except BaseException:
        daemon.stop()
        raise
    run.setup.append(time.perf_counter() - start)
    return daemon


def measure(directory: Path, seed: int, seconds: float, trace: bool) -> dict:
    run = Measurement(f"serve-mixed:{seed}", trace=trace)
    recorder = run.recorder
    recorder.enabled = trace
    inputs = json.loads((directory / "inputs.json").read_text())
    pool = inputs["pool"]
    for index in range(SETUPS - 1):
        start_daemon(run, inputs, directory / f"data-{index}", directory).stop()
    daemon = start_daemon(run, inputs, directory / f"data-{SETUPS - 1}", directory)
    try:
        acks, reads, metrics, lineages = drive(daemon, run, pool, seed, seconds)
    finally:
        daemon_peak = daemon.stop()

    run.check("every ack names a version", check_acks, acks)
    for name in STREAMS:
        publishes = metrics["streams"][name]["counters"]["publishes"]
        run.check("lineage == publishes + 1", check_lineage, name, lineages[name], publishes)
    write_tail, write_pct = tail(run.primary, cap=90.0)
    per_layer = serve_layers(run, reads, metrics)
    per_layer["serve.write_tail_pct"] = write_pct
    return run.result(peak_rss=daemon_peak, per_layer=per_layer,
                      secondary=(write_tail, len(run.primary)))


def drive(daemon: Daemon, run: Measurement, pool: list, seed: int, seconds: float):
    """Run the writer and the reader until the deadline.

    Returns the write acks, the client read latencies, ``/metrics`` and each
    stream's lineage length.
    """
    recorder = run.recorder
    latest = {name: 0 for name in STREAMS}
    acks: list = []
    reads: list[float] = []
    deadline = time.perf_counter() + seconds

    def writer():
        rng = np.random.default_rng(seed)
        rows = {name: SEED_ROWS for name in STREAMS}
        cursor = 0
        connection = daemon.connect()
        index = 0
        while time.perf_counter() < deadline:
            name = STREAMS[index % len(STREAMS)]
            kind = KINDS[(index // len(STREAMS)) % len(KINDS)]
            if kind == "delete":
                payload = {"positions": rng.choice(rows[name], DELETE_ROWS, replace=False).tolist()}
            else:
                count = APPEND_ROWS if kind == "append" else UPDATE_ROWS
                batch = [pool[(cursor + i) % len(pool)] for i in range(count)]
                cursor += count
                payload = {"rows": batch}
                if kind == "update":
                    payload["positions"] = rng.choice(rows[name], UPDATE_ROWS, replace=False).tolist()
            traced = run.traced(index // (len(STREAMS) * len(KINDS)))  # whole rotations
            index += 1
            start = time.perf_counter()
            try:
                with recorder.span(f"serve.{kind}") if traced else nullcontext():
                    status, body = call(connection, "POST", f"/streams/{name}/{kind}", payload)
            except (OSError, http.client.HTTPException):
                run.outcomes.record(ok=False)
                connection.close()
                continue
            wall = time.perf_counter() - start
            if not run.outcomes.record_status(status):
                continue
            run.add_primary(wall, traced=traced)
            version = body.get("version", {}).get("version") if isinstance(body, dict) else None
            acks.append(version)
            if isinstance(version, int):
                latest[name] = max(latest[name], version)
            rows[name] += {"append": APPEND_ROWS, "delete": -DELETE_ROWS, "update": 0}[kind]
        connection.close()

    def reader():
        rng = np.random.default_rng(seed + 1)
        connection = daemon.connect()
        index = 0
        path = ""
        while time.perf_counter() < deadline:
            if index % 2 == 0:
                name = STREAMS[int(rng.integers(len(STREAMS)))]
                version = int(rng.random() * (latest[name] + 1))
                path = f"/streams/{name}/versions/{version}"
            else:
                path += "/audit"
            traced = run.traced(index // 2)
            index += 1
            start = time.perf_counter()
            try:
                with recorder.span("serve.read") if traced else nullcontext():
                    status, _ = call(connection, "GET", path)
            except (OSError, http.client.HTTPException):
                run.outcomes.record(ok=False)
                connection.close()
                continue
            wall = time.perf_counter() - start
            if run.outcomes.record_status(status):
                reads.append(wall)
        connection.close()

    errors: list[BaseException] = []

    def guarded(loop):
        try:
            loop()
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(loop,)) for loop in (writer, reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    connection = daemon.connect()
    try:
        metrics = call(connection, "GET", "/metrics")[1]
        lineages = {
            name: len(call(connection, "GET", f"/streams/{name}/versions")[1]["versions"])
            for name in STREAMS
        }
    finally:
        connection.close()
    return acks, reads, metrics, lineages


def serve_layers(run: Measurement, reads: list[float], metrics: dict) -> dict[str, float]:
    """The daemon's own view from ``/metrics``, set against the client's latencies."""
    streams = [metrics["streams"][name] for name in STREAMS]
    publishes = sum(s["counters"]["publishes"] for s in streams)
    # Count-weighted mean of the per-stream medians (the histograms are per stream).
    publish_p50 = sum(
        s["publish_seconds"]["p50"] * s["publish_seconds"]["count"]
        for s in streams if s["publish_seconds"]["count"]
    ) / max(1, sum(s["publish_seconds"]["count"] for s in streams))
    handler = metrics["server"]["read_seconds"]
    # The daemon's p99 is nearest-rank over its recent window; keep it only
    # when at least ten samples of that window lie beyond it.
    read_p99 = handler["p99"] if has_tail(min(handler["count"], HISTOGRAM_WINDOW), 99.0) else 0.0
    read_tail, read_pct = tail(reads)
    return {
        "serve.publish_p50_s": publish_p50,
        "serve.write_wait_s": median(run.primary) - publish_p50 if run.primary else 0.0,
        "serve.read_handler_p50_s": handler["p50"] or 0.0,
        "serve.read_handler_p99_s": read_p99,
        "serve.publishes": publishes,
        "serve.coalesce_ratio": (
            sum(s["counters"]["coalesced_operations"] for s in streams) / publishes
            if publishes else 0.0
        ),
        "serve.rejected_batches": sum(s["counters"]["rejected_batches"] for s in streams),
        "serve.failed_batches": sum(s["counters"]["failed_batches"] for s in streams),
        "serve.read_p50_s": median(reads) if reads else 0.0,
        "serve.read_tail_s": read_tail,
        "serve.read_tail_pct": read_pct,
    }
