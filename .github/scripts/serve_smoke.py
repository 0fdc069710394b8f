"""Drive a live ``repro serve`` daemon over HTTP for the package-smoke job.

Usage::

    python serve_smoke.py seed               http://127.0.0.1:8751
    python serve_smoke.py resume             http://127.0.0.1:8751
    python serve_smoke.py flood              http://127.0.0.1:8752
    python serve_smoke.py resume-after-flood http://127.0.0.1:8752

``seed`` waits for the daemon to come up, creates a stream from 200 Adult
rows, fires one append, one delete and one update (sequentially, so each
publishes its own version), and reads back version 0, the latest audit
report, the metrics view and the Prometheus text exposition (validated line
by line against the 0.0.4 format contract).  ``resume`` runs against a *restarted* daemon
on the same data dir and asserts every version survived on disk (the
restart also exercises stale-lock recovery: the killed daemon leaves
``store.lock`` behind and the new one must steal it), then appends once
more and checks the version numbering continues where it left off.

``flood`` drives a daemon started with a one-slot queue
(``--max-queue-batches 1``): it creates a stream, fires a burst of
concurrent appends, asserts at least one was rejected with 429 +
``Retry-After``, retries every rejected batch until accepted (the recovery
half of the backpressure contract), checks the rejection counters in
``/metrics`` - then leaves one final append *in flight* and exits, so the
workflow can SIGKILL the daemon mid-publication.
``resume-after-flood`` runs after that kill + restart: the killed daemon's
``store.lock`` (its pid is now dead) must have been stolen - a lock held by
a live process makes the resume fail - and the stream must accept new
appends with the version numbering continuing from whatever was durably
published before the kill.

The script only needs the installed package (``repro`` + numpy) and the
stdlib - it is the clean-venv counterpart of ``examples/serve_client.py``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2}
SEED_ROWS = 200
BATCH_ROWS = 40


def call(base: str, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def call_full(base: str, method: str, path: str, payload=None):
    """Like :func:`call`, but 4xx is returned (with headers), not raised."""
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def call_text(base: str, path: str):
    """GET a non-JSON endpoint, returning (status, text, headers)."""
    request = urllib.request.Request(base + path, method="GET")
    with urllib.request.urlopen(request, timeout=120) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            dict(response.headers),
        )


def check_prometheus(base: str) -> int:
    """Scrape the Prometheus exposition and validate it line by line.

    Returns the number of samples.  The format contract (text exposition
    0.0.4): every non-empty line is either a ``# HELP``/``# TYPE`` comment or
    a ``name{labels} value`` sample whose value parses as a float; every
    sample's metric name was announced by a preceding ``# TYPE`` line.
    """
    status, text, headers = call_text(base, "/metrics?format=prometheus")
    assert status == 200, status
    assert headers.get("Content-Type", "").startswith("text/plain"), headers
    assert text.endswith("\n"), "the exposition must end with a newline"
    typed: set[str] = set()
    samples = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            assert parts[1] in ("HELP", "TYPE") and len(parts) >= 3, line
            if parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        name_part, _, value_part = line.rpartition(" ")
        float(value_part)  # must parse (raises on a malformed sample)
        name = name_part.split("{", 1)[0]
        # A summary's _count/_sum samples belong to the family announced
        # under the base name.
        family = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
        assert family in typed, f"sample {name!r} has no preceding # TYPE line"
        assert name.startswith("repro_"), line
        samples += 1
    assert samples, "the exposition carried no samples"
    # The alias endpoint must serve the same families.
    alias_status, alias_text, _ = call_text(base, "/metrics.prom")
    assert alias_status == 200 and alias_text.splitlines()[0] == text.splitlines()[0]
    return samples


def wait_healthy(base: str, attempts: int = 150) -> None:
    for _ in range(attempts):
        try:
            call(base, "GET", "/healthz")
            return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise SystemExit(f"daemon at {base} never became healthy")


def adult_rows(count: int, seed: int):
    from repro.data.adult import generate_adult

    table = generate_adult(count, seed=seed)
    return [
        {
            name: (value.item() if hasattr(value, "item") else value)
            for name, value in table.row(index).items()
        }
        for index in range(table.n_rows)
    ]


def seed(base: str) -> None:
    rows = adult_rows(SEED_ROWS + 2 * BATCH_ROWS, seed=11)
    status, body = call(
        base, "POST", "/streams",
        {"name": "census", "rows": rows[:SEED_ROWS], "config": CONFIG},
    )
    assert status == 201, (status, body)
    assert body["stream"]["versions"] == 1, body

    status, body = call(
        base, "POST", "/streams/census/append",
        {"rows": rows[SEED_ROWS:SEED_ROWS + BATCH_ROWS]},
    )
    assert status == 200 and body["version"]["version"] == 1, (status, body)
    status, body = call(
        base, "POST", "/streams/census/delete", {"positions": list(range(10))}
    )
    assert status == 200 and body["version"]["version"] == 2, (status, body)
    status, body = call(
        base, "POST", "/streams/census/update",
        {"positions": list(range(10, 20)),
         "rows": rows[SEED_ROWS + BATCH_ROWS:SEED_ROWS + BATCH_ROWS + 10]},
    )
    assert status == 200 and body["version"]["version"] == 3, (status, body)

    status, body = call(base, "GET", "/streams/census/versions/0")
    assert status == 200 and body["version"]["rows"] == SEED_ROWS, (status, body)
    status, body = call(base, "GET", "/streams/census/audit")
    assert status == 200 and body["version"] == 3, (status, body)
    assert body["audit"]["adversaries"], body
    status, body = call(base, "GET", "/metrics")
    assert status == 200, (status, body)
    counters = body["streams"]["census"]["counters"]
    assert counters["publishes"] == 3 and counters["failed_batches"] == 0, body
    samples = check_prometheus(base)
    print(
        "serve smoke (seed): 4 versions published, audit + metrics read "
        f"back, {samples} Prometheus samples validated"
    )


def resume(base: str) -> None:
    status, body = call(base, "GET", "/healthz")
    assert status == 200 and body["streams"] == ["census"], (status, body)
    status, body = call(base, "GET", "/streams/census")
    assert status == 200 and body["stream"]["versions"] == 4, (status, body)

    rows = adult_rows(BATCH_ROWS, seed=12)
    status, body = call(base, "POST", "/streams/census/append", {"rows": rows})
    assert status == 200 and body["version"]["version"] == 4, (status, body)
    status, body = call(base, "GET", "/streams/census/audit")
    assert status == 200 and body["version"] == 4, (status, body)
    print("serve smoke (resume): stream resumed from disk, version numbering continued")


def flood(base: str) -> None:
    burst = 6
    rows = adult_rows(SEED_ROWS + (burst + 2) * BATCH_ROWS, seed=21)
    status, body = call(
        base, "POST", "/streams",
        {"name": "burst", "rows": rows[:SEED_ROWS], "config": CONFIG},
    )
    assert status == 201, (status, body)
    pool = rows[SEED_ROWS:]
    batches = [
        pool[index * BATCH_ROWS:(index + 1) * BATCH_ROWS] for index in range(burst)
    ]

    lock = threading.Lock()
    rejections = []
    failures = []

    def fire(batch) -> None:
        # Retry on 429 until accepted: the recovery half of the contract -
        # backpressure costs the client time, never data.
        while True:
            status, body, headers = call_full(
                base, "POST", "/streams/burst/append", {"rows": batch}
            )
            if status == 200:
                return
            if status == 429:
                with lock:
                    rejections.append(headers.get("Retry-After"))
                time.sleep(0.1)
                continue
            with lock:
                failures.append((status, body))
            return

    threads = [threading.Thread(target=fire, args=(batch,)) for batch in batches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[:3]
    # A one-slot queue against 6 concurrent writers must have pushed back,
    # and every 429 must have carried its pacing hint.
    assert rejections, "the flood never saw a 429 despite the one-slot queue"
    assert all(value and int(value) >= 1 for value in rejections), rejections

    status, body = call(base, "GET", "/streams/burst")
    assert status == 200, (status, body)
    versions = body["stream"]["versions"]
    assert versions >= 2, body  # every batch landed (coalescing allowed)

    status, body = call(base, "GET", "/metrics")
    assert status == 200, (status, body)
    stream = body["streams"]["burst"]
    assert stream["counters"]["rejected_batches"] == len(rejections), body
    assert stream["counters"]["failed_batches"] == 0, body
    assert stream["queue_high_water"] == 1, body

    # Leave one publication in flight for the workflow's SIGKILL: fire the
    # append without awaiting it and give it a moment to reach the writer.
    threading.Thread(
        target=call_full,
        args=(base, "POST", "/streams/burst/append"),
        kwargs={"payload": {"rows": pool[burst * BATCH_ROWS:(burst + 1) * BATCH_ROWS]}},
        daemon=True,
    ).start()
    time.sleep(0.4)
    print(
        f"serve smoke (flood): {len(rejections)} rejections with Retry-After, "
        f"all {burst} batches recovered into {versions} versions"
    )


def resume_after_flood(base: str) -> None:
    status, body = call(base, "GET", "/healthz")
    assert status == 200 and "burst" in body["streams"], (status, body)
    status, body = call(base, "GET", "/streams/burst")
    assert status == 200, (status, body)
    versions = body["stream"]["versions"]
    assert versions >= 2, body
    assert body["stream"]["poisoned"] is None, body

    # The killed daemon held the shard lock; the restart proves it went
    # stale and was stolen.  New writes must publish with the numbering
    # continuing from whatever survived on disk.
    rows = adult_rows(BATCH_ROWS, seed=22)
    status, body = call(base, "POST", "/streams/burst/append", {"rows": rows})
    assert status == 200 and body["version"]["version"] == versions, (status, body)
    status, body = call(base, "GET", "/streams/burst/audit")
    assert status == 200 and body["version"] == versions, (status, body)
    print(
        "serve smoke (resume-after-flood): stale lock stolen, shard resumed "
        f"after SIGKILL, version numbering continued at {versions}"
    )


MODES = {
    "seed": seed,
    "resume": resume,
    "flood": flood,
    "resume-after-flood": resume_after_flood,
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    mode, base = argv
    wait_healthy(base)
    MODES[mode](base)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
