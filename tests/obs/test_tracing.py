"""The span tracer: nesting, no-op discipline, serialization, threads."""

import json
import threading

from repro.obs.tracing import (
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    new_trace_id,
)


def test_spans_nest_into_a_tree_with_attributes():
    tracer = Tracer()
    with tracer.span("publish", stream="census") as root:
        with tracer.span("prior"):
            pass
        with tracer.span("partition") as partition:
            partition.annotate(splits=3)
            with tracer.span("audit"):
                pass
    taken = tracer.take_root()
    assert taken is root
    assert root.attributes == {"stream": "census"}
    assert [child.name for child in root.children] == ["prior", "partition"]
    assert root.child("partition").attributes == {"splits": 3}
    assert [span.name for span in root.walk()] == [
        "publish", "prior", "partition", "audit",
    ]
    assert root.find("audit").name == "audit"
    assert root.find("absent") is None
    assert root.duration_s >= root.child("partition").duration_s >= 0.0


def test_take_root_pops_once():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    assert tracer.take_root().name == "a"
    assert tracer.take_root() is None


def test_current_reports_the_innermost_open_span():
    tracer = Tracer()
    assert tracer.current() is None
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.current().name == "inner"
        assert tracer.current().name == "outer"
    assert tracer.current() is None


def test_disabled_span_is_the_shared_null_context():
    """``span()`` on a disabled tracer allocates nothing: every call hands
    back the one module-level null context, and nothing is ever retained."""
    tracer = Tracer(enabled=False)
    first = tracer.span("a", big=list(range(10)))
    second = tracer.span("b")
    assert first is second is NULL_TRACER.span("c")
    with first as span:
        span.annotate(ignored=True)
        assert span.attributes == {}
    assert tracer.take_root() is None
    assert tracer.current() is None


def test_timed_measures_even_when_disabled():
    """``timed()`` spans back the publisher's ``StreamDelta.timings``: they
    must measure a real duration in both modes, but only an enabled tracer
    retains them in a tree."""
    enabled, disabled = Tracer(enabled=True), Tracer(enabled=False)
    for tracer in (enabled, disabled):
        with tracer.timed("total", rows=5) as span:
            pass
        assert span.name == "total"
        assert span.attributes == {"rows": 5}
        assert span.duration_s > 0.0
    assert enabled.take_root().name == "total"
    assert disabled.take_root() is None


def test_json_round_trip_preserves_the_tree_with_root_relative_offsets():
    tracer = Tracer()
    with tracer.span("publish", stream="census"):
        with tracer.span("prior"):
            pass
        with tracer.span("partition", splits=2):
            pass
    root = tracer.take_root()
    payload = root.to_dict()
    # Serialized offsets are root-relative: the root starts at zero and every
    # child starts within the root's duration, regardless of the absolute
    # monotonic-clock values the spans were recorded against.
    assert payload["start_s"] == 0.0
    for child in payload["children"]:
        assert 0.0 <= child["start_s"] <= payload["duration_s"] + 1e-9

    restored = Span.from_json(root.to_json())
    assert restored.to_dict() == payload
    assert json.loads(root.to_json()) == payload
    assert [span.name for span in restored.walk()] == [
        span.name for span in root.walk()
    ]
    assert restored.child("partition").attributes == {"splits": 2}


def test_adopt_stitches_a_foreign_tree():
    """A deserialized trace stitches under a live tick span - exactly
    ``Span.adopt`` on a ``Span.from_dict`` result."""
    worker = Tracer()
    with worker.span("publish.append", rows=30):
        with worker.span("prior"):
            pass
    shipped = worker.take_root().to_dict()  # the JSON-able tree

    parent = Tracer()
    with parent.timed("serve.publish_tick", stream="census") as tick:
        tick.adopt(Span.from_dict(shipped))
    root = parent.take_root()
    assert [child.name for child in root.children] == ["publish.append"]
    assert root.find("prior") is not None


def test_threads_trace_through_one_tracer_without_interleaving():
    tracer = Tracer()
    roots = {}

    def work(name):
        with tracer.span(f"outer-{name}"):
            with tracer.span(f"inner-{name}"):
                pass
        roots[name] = tracer.take_root()

    threads = [threading.Thread(target=work, args=(str(i),)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert set(roots) == {"0", "1", "2", "3"}
    for name, root in roots.items():
        assert root.name == f"outer-{name}"
        assert [child.name for child in root.children] == [f"inner-{name}"]


def test_ambient_tracer_activation_is_scoped_and_per_thread():
    assert current_tracer() is NULL_TRACER
    tracer = Tracer()
    seen = {}
    with tracer.activate():
        assert current_tracer() is tracer

        def probe():
            seen["other-thread"] = current_tracer()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        nested = Tracer()
        with nested.activate():
            assert current_tracer() is nested
        assert current_tracer() is tracer
    assert current_tracer() is NULL_TRACER
    # Activation is thread-local: another thread still sees the null tracer.
    assert seen["other-thread"] is NULL_TRACER


def test_new_trace_ids_are_unique_32_hex():
    ids = {new_trace_id() for _ in range(64)}
    assert len(ids) == 64
    for value in ids:
        assert len(value) == 32
        int(value, 16)
