"""The daemon over real sockets: lifecycle, concurrency, failure semantics.

Each test starts a genuine :class:`~repro.serve.ServeApp` on an ephemeral
port (event loop in a background thread) and drives it with ``urllib`` /
``http.client``, exactly as an external client would.
"""

import http.client
import json
import threading
import time

from repro.serve.app import MAX_BODY_BYTES

#: Small stream config that keeps the full pipeline fast in CI.
FAST_CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2, "max_cells": 20000}
SEED_ROWS = 260


def _create(server, name, rows, config=FAST_CONFIG):
    return server.request(
        "POST", "/streams", {"name": name, "rows": rows, "config": config}
    )


def test_full_lifecycle_over_http(live_server, adult_rows):
    server = live_server()
    seed, rest = adult_rows[:SEED_ROWS], adult_rows[SEED_ROWS:]

    status, payload, _ = server.request("GET", "/healthz")
    assert status == 200 and payload == {"status": "ok", "streams": []}

    status, payload, _ = _create(server, "census", seed)
    assert status == 201
    assert payload["stream"]["name"] == "census"
    assert payload["stream"]["versions"] == 1
    assert payload["stream"]["rows"] == SEED_ROWS

    status, payload, _ = server.request(
        "POST", "/streams/census/append", {"rows": rest[:30]}
    )
    assert status == 200 and payload["version"]["version"] == 1
    status, payload, _ = server.request(
        "POST", "/streams/census/delete", {"positions": [0, 5, 11]}
    )
    assert status == 200 and payload["version"]["version"] == 2
    status, payload, _ = server.request(
        "POST",
        "/streams/census/update",
        {"positions": [3, 4], "rows": [seed[20], seed[21]]},
    )
    assert status == 200 and payload["version"]["version"] == 3

    status, payload, _ = server.request("GET", "/streams/census/versions")
    assert status == 200 and len(payload["versions"]) == 4
    status, payload, _ = server.request("GET", "/streams/census/versions/2")
    assert status == 200 and payload["version"]["version"] == 2
    status, payload, _ = server.request("GET", "/streams/census/versions/0/audit")
    assert status == 200 and "audit" in payload
    status, latest, _ = server.request("GET", "/streams/census/audit")
    assert status == 200 and latest["version"] == 3

    status, payload, _ = server.request("GET", "/metrics")
    assert status == 200
    stream = payload["streams"]["census"]
    assert stream["counters"]["publishes"] == 3
    assert stream["counters"]["append_batches"] == 1
    assert stream["counters"]["delete_batches"] == 1
    assert stream["counters"]["update_batches"] == 1
    assert stream["counters"]["failed_batches"] == 0
    assert stream["publish_seconds"]["count"] == 3
    assert payload["server"]["counters"]["writes"] == 4
    assert payload["server"]["counters"]["errors"] == 0
    assert payload["server"]["read_seconds"]["count"] >= 1


def test_error_statuses(live_server, adult_rows):
    server = live_server()
    _create(server, "census", adult_rows[:SEED_ROWS])

    assert server.request("GET", "/streams/nope")[0] == 404
    assert server.request("GET", "/streams/census/versions/99")[0] == 404
    assert server.request("GET", "/no/such/route")[0] == 404
    assert server.request("DELETE", "/streams/census")[0] == 405
    assert server.request("POST", "/streams/census/append", {"rows": []})[0] == 400
    assert server.request("GET", "/streams/census/versions/abc")[0] == 400
    status, payload, _ = server.request(
        "POST", "/streams/census/append", {"rows": [{"Age": "zebra"}]}
    )
    assert status == 400 and "bad" in payload["message"].lower()
    # A malformed batch never reaches the worker, so the stream is unharmed.
    status, payload, _ = server.request(
        "POST", "/streams/census/append", {"rows": adult_rows[SEED_ROWS:SEED_ROWS + 10]}
    )
    assert status == 200 and payload["version"]["version"] == 1
    # Duplicate creation is a conflict.
    assert _create(server, "census", adult_rows[:SEED_ROWS])[0] == 409
    # A cell budget below 1 is a bad request, not a fallback estimator.
    status, payload, _ = _create(
        server, "tiny", adult_rows[:SEED_ROWS], {**FAST_CONFIG, "max_cells": 0}
    )
    assert status == 400 and "max_cells" in payload["message"]


def test_non_integer_positions_are_400(live_server, adult_rows):
    """Floats and booleans are not row positions: 1.5 must not delete row 1."""
    server = live_server()
    _create(server, "census", adult_rows[:SEED_ROWS])
    for positions in ([1.5], [True], [0, False], [2.0], ["3"]):
        status, payload, _ = server.request(
            "POST", "/streams/census/delete", {"positions": positions}
        )
        assert status == 400 and "integers" in payload["message"]
        status, _, _ = server.request(
            "POST",
            "/streams/census/update",
            {"positions": positions, "rows": adult_rows[:len(positions)]},
        )
        assert status == 400
    status, payload, _ = server.request(
        "POST", "/streams/census/delete", {"positions": [1]}
    )
    assert status == 200 and payload["version"]["version"] == 1


def test_oversized_body_is_413(live_server, adult_rows):
    server = live_server()
    connection = http.client.HTTPConnection("127.0.0.1", server.app.port, timeout=30)
    try:
        # Announce an impossible body; the daemon must answer from the
        # Content-Length alone instead of buffering 64 MiB.
        connection.putrequest("POST", "/streams")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 413
        assert b"exceeds" in response.read()
    finally:
        connection.close()


def test_concurrent_reads_are_byte_identical_during_publication(
    live_server, adult_rows
):
    server = live_server()
    _create(server, "census", adult_rows[:SEED_ROWS])
    baseline = server.request("GET", "/streams/census/versions/0")[2]
    audit_baseline = server.request("GET", "/streams/census/versions/0/audit")[2]

    # Hold the write worker so the publication is genuinely in flight while
    # the readers hammer the historical version.
    host = server.app.registry.get("census")
    host.pause()
    write_result = {}

    def write():
        write_result["response"] = server.request(
            "POST", "/streams/census/append", {"rows": adult_rows[SEED_ROWS:]}
        )

    writer = threading.Thread(target=write)
    writer.start()

    mismatches = []
    stop_reading = threading.Event()

    def read():
        while not stop_reading.is_set():
            status, _, raw = server.request("GET", "/streams/census/versions/0")
            if status != 200 or raw != baseline:
                mismatches.append(f"version: {status}")
            status, _, raw = server.request(
                "GET", "/streams/census/versions/0/audit"
            )
            if status != 200 or raw != audit_baseline:
                mismatches.append(f"audit: {status}")

    readers = [threading.Thread(target=read) for _ in range(6)]
    for thread in readers:
        thread.start()
    time.sleep(0.3)  # reads while the mutation sits queued behind the gate
    assert writer.is_alive()  # the publication really was held open
    host.unpause()
    # Keep reading while the publication actually executes (this is the
    # window where the publisher internally buffers intermediate versions).
    writer.join(timeout=300)
    stop_reading.set()
    for thread in readers:
        thread.join(timeout=120)

    assert mismatches == []
    status, payload, _ = write_result["response"]
    assert status == 200 and payload["version"]["version"] == 1
    # And the historical bytes are still the same after the publication.
    assert server.request("GET", "/streams/census/versions/0")[2] == baseline


def test_poisoned_stream_is_409_and_siblings_keep_publishing(
    live_server, adult_rows, monkeypatch
):
    from repro.exceptions import StreamError

    server = live_server()
    seed, batch = adult_rows[:SEED_ROWS], adult_rows[SEED_ROWS:SEED_ROWS + 20]
    _create(server, "sick", seed)
    _create(server, "healthy", seed)

    sick = server.app.registry.get("sick")

    def explode(operations):
        sick.publisher._inconsistent = True
        raise StreamError("mid-publication failure")

    monkeypatch.setattr(sick.publisher, "publish_coalesced", explode)
    status, payload, _ = server.request("POST", "/streams/sick/append", {"rows": batch})
    assert status == 409
    assert "poisoned" in payload["message"]
    assert "resume" in payload["message"]

    # Still poisoned on the next write; reads and siblings are unaffected.
    assert server.request("POST", "/streams/sick/append", {"rows": batch})[0] == 409
    assert server.request("GET", "/streams/sick/versions/0")[0] == 200
    status, payload, _ = server.request(
        "POST", "/streams/healthy/append", {"rows": batch}
    )
    assert status == 200 and payload["version"]["version"] == 1
    status, payload, _ = server.request("GET", "/streams/sick")
    assert status == 200 and payload["stream"]["poisoned"] is not None


def test_restart_resumes_streams_over_http(live_server, adult_rows, tmp_path):
    data_dir = tmp_path / "serve-data"
    first = live_server(data_dir)
    seed, rest = adult_rows[:SEED_ROWS], adult_rows[SEED_ROWS:]
    _create(first, "census", seed)
    first.request("POST", "/streams/census/append", {"rows": rest[:30]})
    lineage_before = first.request("GET", "/streams/census/versions")[2]
    first.close()

    second = live_server(data_dir)
    status, payload, _ = second.request("GET", "/healthz")
    assert status == 200 and payload["streams"] == ["census"]
    # History is byte-identical across the restart...
    assert second.request("GET", "/streams/census/versions")[2] == lineage_before
    # ... and the stream continues where it left off.
    status, payload, _ = second.request(
        "POST", "/streams/census/append", {"rows": rest[30:]}
    )
    assert status == 200 and payload["version"]["version"] == 2


def test_responses_are_json_with_sorted_keys(live_server, adult_rows):
    server = live_server()
    _create(server, "census", adult_rows[:SEED_ROWS])
    raw = server.request("GET", "/streams/census")[2]
    decoded = json.loads(raw)
    assert raw == (json.dumps(decoded, sort_keys=True) + "\n").encode()
