"""The daemon's observability surface: trace ids, Prometheus, span stitching."""

import urllib.request


#: Same small stream config the HTTP lifecycle tests use.
FAST_CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2, "max_cells": 20000}
SEED_ROWS = 260


def _create(server, name, rows, config=FAST_CONFIG):
    return server.request(
        "POST", "/streams", {"name": name, "rows": rows, "config": config}
    )


def _raw_get(server, path):
    """GET a non-JSON endpoint: (status, text, headers)."""
    with urllib.request.urlopen(server.base_url + path, timeout=120) as response:
        return response.status, response.read().decode("utf-8"), dict(response.headers)


# -- per-request trace ids -----------------------------------------------------------------


def test_every_response_echoes_a_fresh_trace_id(live_server, adult_rows):
    server = live_server()
    _create(server, "census", adult_rows[:SEED_ROWS])
    seen = set()
    for path in ("/healthz", "/streams/census", "/healthz"):
        status, _, headers = server.request_with_headers("GET", path)
        assert status == 200
        trace_id = headers["X-Repro-Trace-Id"]
        assert len(trace_id) == 32
        int(trace_id, 16)
        seen.add(trace_id)
    assert len(seen) == 3, "trace ids are per-request, never reused"
    # Errors carry one too - the id is how a 4xx is found in the logs.
    status, _, headers = server.request_with_headers("GET", "/streams/absent")
    assert status == 404 and len(headers["X-Repro-Trace-Id"]) == 32


def test_write_trace_ids_land_on_the_published_tick_span(live_server, adult_rows):
    """The id echoed to a mutating client is recorded on the tick span that
    published its batch - the log line, the response header and the version's
    trace all correlate."""
    server = live_server(coalesce_ms=0.0)
    _create(server, "census", adult_rows[:SEED_ROWS])
    status, body, headers = server.request_with_headers(
        "POST", "/streams/census/append", {"rows": adult_rows[SEED_ROWS:SEED_ROWS + 30]}
    )
    assert status == 200
    trace_id = headers["X-Repro-Trace-Id"]
    version = body["version"]["version"]

    status, detail, _ = server.request("GET", f"/streams/census/versions/{version}")
    assert status == 200
    assert trace_id in detail["trace"]["attributes"]["trace_ids"]


# -- version detail: span-derived stage breakdown ------------------------------------------


def test_version_detail_carries_trace_and_stage_breakdown(live_server, adult_rows):
    server = live_server(coalesce_ms=0.0)
    _create(server, "census", adult_rows[:SEED_ROWS])
    status, body, _ = server.request(
        "POST", "/streams/census/append", {"rows": adult_rows[SEED_ROWS:SEED_ROWS + 30]}
    )
    assert status == 200
    version = body["version"]["version"]

    status, detail, _ = server.request("GET", f"/streams/census/versions/{version}")
    assert status == 200
    trace = detail["trace"]
    assert trace["name"] == "serve.publish_tick"
    assert trace["attributes"]["stream"] == "census"
    stages = detail["stages"]
    assert stages["publish"].startswith("publish.")
    assert stages["duration_s"] > 0.0
    assert stages["stages"], "the publish span recorded stage children"
    for name, seconds in stages["stages"].items():
        assert isinstance(name, str) and seconds >= 0.0
    # The breakdown is derived from the trace, so it cannot disagree with it.
    total = sum(stages["stages"].values())
    assert total <= stages["duration_s"] + 1e-6

    # The seed version was published by ``create`` itself, outside any tick:
    # it carries no trace, and the field is simply absent rather than null.
    status, seed_detail, _ = server.request("GET", "/streams/census/versions/0")
    assert status == 200
    assert seed_detail["version"]["version"] == 0
    assert "trace" not in seed_detail and "stages" not in seed_detail


# -- Prometheus exposition over HTTP -------------------------------------------------------


def test_metrics_format_negotiation(live_server, adult_rows):
    server = live_server()
    _create(server, "census", adult_rows[:SEED_ROWS])

    status, text, headers = _raw_get(server, "/metrics?format=prometheus")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    assert text.endswith("\n")
    assert "# TYPE repro_server_uptime_seconds gauge" in text
    assert 'repro_stream_versions{stream="census"} 1' in text

    # The .prom alias serves the same exposition for scrapers that cannot
    # set query parameters; the JSON document is untouched.
    alias_status, alias_text, _ = _raw_get(server, "/metrics.prom")
    assert alias_status == 200
    assert alias_text.splitlines()[0] == text.splitlines()[0]
    status, body, _ = server.request("GET", "/metrics")
    assert status == 200 and body["streams"]["census"]["versions"] == 1

    status, body, _ = server.request("GET", "/metrics?format=xml")
    assert status == 400 and "unknown metrics format" in body["message"]
