"""Tracing through the publisher: identical output on/off, real span trees."""

import numpy as np

from repro.data.adult import generate_adult
from repro.knowledge.backend import EstimatorConfig
from repro.obs.tracing import Tracer
from repro.privacy.models import BTPrivacy
from repro.stream import IncrementalPublisher

SEED_ROWS = 260
BATCH_ROWS = 30
FULL = generate_adult(SEED_ROWS + 2 * BATCH_ROWS, seed=11)
SEED_TABLE = FULL.select(np.arange(SEED_ROWS))
BATCHES = [
    FULL.select(np.arange(SEED_ROWS, SEED_ROWS + BATCH_ROWS)),
    FULL.select(np.arange(SEED_ROWS + BATCH_ROWS, SEED_ROWS + 2 * BATCH_ROWS)),
]


def _publisher(tracer):
    return IncrementalPublisher(
        SEED_TABLE,
        BTPrivacy(0.3, 0.25),
        skyline=[(0.1, 0.3), (0.3, 0.25)],
        k=2,
        config=EstimatorConfig(max_cells=20000),
        tracer=tracer,
    )


def _run_lifecycle(publisher):
    publisher.publish()
    publisher.append(BATCHES[0])
    publisher.delete([0, 7, 19])
    publisher.update(np.arange(4), BATCHES[1].select(np.arange(4)))
    return publisher


def _canonical(payload):
    """Lineage JSON minus wall-clock values (timing keys kept, values not)."""
    if isinstance(payload, dict):
        return {
            key: ("<time>" if key.endswith("_seconds") else _canonical(value))
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [_canonical(value) for value in payload]
    if isinstance(payload, float):
        return float(f"{payload:.12g}")
    return payload


def test_disabled_tracer_changes_nothing_but_retains_nothing():
    """The no-op guarantee: a publisher with tracing off produces the same
    releases and the same lineage documents - including every
    ``StreamDelta.timings`` key - as one with tracing on; only the clock
    values differ.  And the disabled run retains no span tree at all."""
    traced = _run_lifecycle(_publisher(Tracer(enabled=True)))
    silent = _run_lifecycle(_publisher(Tracer(enabled=False)))

    assert len(traced.store) == len(silent.store) == 4
    for ours, theirs in zip(traced.store, silent.store):
        assert all(
            np.array_equal(a, b)
            for a, b in zip(ours.release.groups, theirs.release.groups)
        )
        assert ours.delta.timings.keys() == theirs.delta.timings.keys()
    assert _canonical(traced.store.lineage()) == _canonical(silent.store.lineage())

    assert silent.tracer.take_root() is None
    assert traced.tracer.take_root() is not None


def test_publish_spans_form_one_tree_per_version():
    """Each publication leaves one ``publish.<kind>`` root on the tracer,
    with the stage spans (the ones behind ``StreamDelta.timings``) nested
    under it."""
    tracer = Tracer()
    publisher = _publisher(tracer)

    publisher.publish()
    seed_root = tracer.take_root()
    assert seed_root.name == "publish.full"
    assert seed_root.children, "the seed publish records its stages"
    assert all(span.duration_s >= 0.0 for span in seed_root.walk())

    version = publisher.append(BATCHES[0])
    append_root = tracer.take_root()
    assert append_root.name == "publish.append"
    stage_names = {child.name for child in append_root.children}
    assert stage_names, "the append publish records its stages"
    # The delta's published timings and the span tree describe the same
    # stages: every span duration is bounded by the root's.
    assert version.delta.timings["total_seconds"] >= 0.0
    assert all(
        child.duration_s <= append_root.duration_s + 1e-9
        for child in append_root.children
    )

    publisher.delete([0, 1, 2])
    assert tracer.take_root().name == "publish.delete"


def test_publisher_defaults_to_an_enabled_tracer():
    publisher = _publisher(None)
    assert publisher.tracer.enabled
    publisher.publish()
    assert publisher.tracer.take_root().name == "publish.full"
