"""The Prometheus renderer: format contract, mapping, label escaping."""

from repro.obs.prometheus import CONTENT_TYPE, render

#: A representative /metrics JSON snapshot (the renderer's only input).
PAYLOAD = {
    "server": {
        "uptime_seconds": 12.5,
        "counters": {"requests": 9, "writes": 4, "errors": 1},
        "read_seconds": {
            "count": 5, "mean": 0.01, "p50": 0.008, "p95": 0.02, "p99": 0.03,
            "min": 0.004, "max": 0.031,
        },
    },
    "streams": {
        "census": {
            "versions": 4, "rows": 290, "groups": 31, "satisfied": True,
            "drift_rows": 12, "queue_depth": 0, "queue_depth_rows": 0,
            "queue_high_water": 1, "queue_high_water_rows": 40,
            "max_queue_batches": 64, "max_queued_rows": 100000,
            "poisoned": None,
            "counters": {"publishes": 3, "failed_batches": 0},
            "publish_seconds": {
                "count": 3, "mean": 2.0, "p50": 1.9, "p95": 2.4, "p99": 2.5,
                "min": 1.7, "max": 2.6,
            },
        },
    },
}


def _parse(text):
    """Validate the 0.0.4 exposition line by line; return samples + types."""
    assert text.endswith("\n")
    typed = {}
    helped = set()
    samples = []
    for line in text.splitlines():
        assert line, "the renderer never emits blank lines"
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            typed[name] = kind
            continue
        assert not line.startswith("#"), line
        name_part, _, value_part = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        samples.append((name, name_part, float(value_part)))
    assert set(typed) == helped, "every family has both HELP and TYPE"
    for name, _, _ in samples:
        family = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
        assert family in typed, f"sample {name!r} was never announced"
        assert name.startswith("repro_"), name
    return samples, typed


def test_render_is_a_valid_exposition_with_server_and_stream_namespaces():
    samples, typed = _parse(render(PAYLOAD))
    names = {name for name, _, _ in samples}
    assert "repro_server_requests_total" in names
    assert "repro_stream_versions" in names
    assert typed["repro_server_requests_total"] == "counter"
    assert typed["repro_stream_versions"] == "gauge"
    assert typed["repro_server_read_seconds"] == "summary"
    assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")


def test_summaries_expose_quantiles_count_and_mean_derived_sum():
    samples, _ = _parse(render(PAYLOAD))
    by_line = {line: value for _, line, value in samples}
    assert by_line['repro_stream_publish_seconds{quantile="0.5",stream="census"}'] == 1.9
    assert by_line['repro_stream_publish_seconds{quantile="0.99",stream="census"}'] == 2.5
    assert by_line['repro_stream_publish_seconds_count{stream="census"}'] == 3
    # _sum is reconstructed from the snapshot's mean * count.
    assert abs(by_line['repro_stream_publish_seconds_sum{stream="census"}'] - 6.0) < 1e-9
    assert by_line['repro_stream_publish_seconds_min{stream="census"}'] == 1.7
    assert by_line['repro_stream_publish_seconds_max{stream="census"}'] == 2.6


def test_stream_gauges_cover_state_and_poisoned_maps_to_flag():
    text = render(PAYLOAD)
    assert 'repro_stream_satisfied{stream="census"} 1' in text
    assert 'repro_stream_poisoned{stream="census"} 0' in text

    poisoned = {
        "server": PAYLOAD["server"],
        "streams": {
            "census": {**PAYLOAD["streams"]["census"], "poisoned": "worker died"},
        },
    }
    assert 'repro_stream_poisoned{stream="census"} 1' in render(poisoned)


def test_label_values_are_escaped():
    payload = {
        "server": {"counters": {}},
        "streams": {'we"ird\\name\n': {"versions": 1, "counters": {}}},
    }
    text = render(payload)
    assert 'repro_stream_versions{stream="we\\"ird\\\\name\\n"} 1' in text
    _parse(text)  # still a well-formed exposition


def test_empty_payload_renders_no_samples_but_stays_well_formed():
    samples, _ = _parse(render({"server": {"uptime_seconds": 0.0}, "streams": {}}))
    assert [name for name, _, _ in samples] == ["repro_server_uptime_seconds"]


def test_sections_absent_from_the_snapshot_are_omitted():
    # Streams may predate their first histogram sample; the renderer may
    # not invent zero families for them.
    text = render(
        {
            "server": {"uptime_seconds": 1.0, "counters": {"requests": 1}},
            "streams": {"census": {"versions": 1, "counters": {}}},
        }
    )
    assert "publish_seconds" not in text
