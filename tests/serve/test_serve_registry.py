"""StreamRegistry / StreamHost: creation, coalescing, poisoning, resume.

The load-bearing contracts from the issue:

* N batches queued against one stream coalesce into ONE published version
  whose release matches a sequential publish of the same batches to within
  ``1e-12``;
* a publication failure poisons only its own stream - siblings keep
  publishing and the poisoned stream keeps serving history;
* a new registry over the same data directory resumes every stream, and the
  next published version is identical to an uninterrupted publisher's.
"""

import multiprocessing
import threading
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.data.table import MicrodataTable
from repro.exceptions import StreamError
from repro.knowledge.backend import EstimatorConfig
from repro.privacy.models import BTPrivacy
from repro.serve import BadRequest, Conflict, NotFound, StreamRegistry
from repro.serve.registry import CONFIG_DEFAULTS
from repro.stream import IncrementalPublisher

#: Small stream config that keeps the full pipeline fast in CI.
FAST_CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2, "max_cells": 20000}

SEED_ROWS = 260
SCHEMA = adult_schema()
ROWS = generate_adult(320, seed=11).rows()


def _table(rows):
    # The same construction the daemon uses for HTTP payloads, so the twin
    # publisher sees identical domains (and therefore identical splits).
    return MicrodataTable.from_rows(SCHEMA, rows)


SEED_TABLE = _table(ROWS[:SEED_ROWS])


def _registry(tmp_path, **kwargs):
    return StreamRegistry(tmp_path / "data", coalesce_ms=0.0, **kwargs)


def _twin_publisher(store_path=None):
    """A plain sequential publisher configured exactly like FAST_CONFIG."""
    return IncrementalPublisher(
        _table(ROWS[:SEED_ROWS]),
        BTPrivacy(FAST_CONFIG["b"], FAST_CONFIG["t"]),
        k=FAST_CONFIG["k"],
        config=EstimatorConfig(max_cells=FAST_CONFIG["max_cells"]),
        store_path=store_path,
    )


def _operations():
    """The mixed batch every equivalence test replays."""
    return [
        ("append", _table(ROWS[SEED_ROWS:SEED_ROWS + 30])),
        ("delete", [0, 7, 19, 42]),
        ("append", _table(ROWS[SEED_ROWS + 30:SEED_ROWS + 60])),
    ]


def _apply_sequentially(publisher, operations):
    for kind, payload in operations:
        if kind == "append":
            publisher.append(payload)
        elif kind == "delete":
            publisher.delete(payload)
        else:
            publisher.update(*payload)
    return publisher.store.latest()


def _assert_same_release(actual, expected, tolerance=1e-12):
    assert actual.n_rows == expected.n_rows
    assert actual.n_groups == expected.n_groups
    assert len(actual.release.groups) == len(expected.release.groups)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(actual.release.groups, expected.release.groups)
    )
    assert actual.report is not None and expected.report is not None
    for ours, theirs in zip(actual.report.entries, expected.report.entries):
        assert float(np.max(np.abs(ours.attack.risks - theirs.attack.risks))) <= tolerance


# -- creation and lookup ------------------------------------------------------------------


def test_create_publishes_seed_and_registers(tmp_path):
    registry = _registry(tmp_path)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        assert registry.names() == ["census"]
        assert registry.get("census") is host
        summary = host.describe()
        assert summary["versions"] == 1
        assert summary["rows"] == SEED_ROWS
        assert summary["poisoned"] is None
        assert summary["config"]["b"] == FAST_CONFIG["b"]
        # The shard persists the creation config for restart-resume.
        assert (registry.data_dir / "census" / "stream.json").exists()
    finally:
        registry.close()


def test_create_rejects_bad_names_duplicates_and_configs(tmp_path):
    registry = _registry(tmp_path)
    try:
        rows = SEED_TABLE.rows()
        for name in ("", ".hidden", "a b", "x" * 65, "../escape"):
            with pytest.raises(BadRequest):
                registry.create(name, rows, FAST_CONFIG)
        registry.create("census", rows, FAST_CONFIG)
        with pytest.raises(Conflict):
            registry.create("census", rows, FAST_CONFIG)
        with pytest.raises(BadRequest):
            registry.create("other", rows, {"nope": 1})
        with pytest.raises(BadRequest):
            registry.create("other", rows, {"model": "nope"})
        with pytest.raises(BadRequest):
            registry.create("other", rows, {"b": "many"})
        # Integer settings are validated, not truncated: k=3.7 is not k=3,
        # k=true is not k=1 (no k-anonymity), max_cells=2.5 is not 2.
        # Real-valued settings refuse booleans and NaN (t=true is not t=1.0;
        # a NaN refine_factor would silently turn refinement off), and model
        # parameters the model itself rejects are a bad request, not a 500.
        for bad in (
            {"k": 3.7}, {"k": True}, {"max_cells": 2.5}, {"max_cells": False},
            {"max_cells": 0}, {"max_cells": -1},
            {"t": True}, {"b": False}, {"l": True}, {"compact_drift": True},
            {"refine_factor": float("nan")}, {"t": "nan"}, {"compact_drift": float("nan")},
            {"skyline": [[0.3, True]]}, {"skyline": [[float("nan"), 0.2]]},
            {"t": 1.5}, {"model": "entropy-l", "l": 0.5},
        ):
            with pytest.raises(BadRequest):
                registry.create("other", rows, {**FAST_CONFIG, **bad})
        with pytest.raises(BadRequest):
            registry.create("other", [{"Age": "not a row"}], FAST_CONFIG)
        # Failed creations must not leave half-built shards behind.
        assert not (registry.data_dir / "other").exists()
        with pytest.raises(NotFound):
            registry.get("other")
    finally:
        registry.close()


def test_resolve_config_fills_defaults():
    resolved = StreamRegistry.resolve_config({"b": "0.4", "k": "3"})
    assert resolved["b"] == 0.4
    assert resolved["k"] == 3
    assert StreamRegistry.resolve_config({"k": 3.0, "max_cells": "500"})["k"] == 3
    assert StreamRegistry.resolve_config({"max_cells": "500"})["max_cells"] == 500
    for bad in (0, -1, "0"):
        with pytest.raises(BadRequest, match="at least 1"):
            StreamRegistry.resolve_config({"max_cells": bad})
    assert resolved["model"] == CONFIG_DEFAULTS["model"]
    assert resolved["method"] == "omega"
    # Infinity is the documented way to turn compaction off.
    assert StreamRegistry.resolve_config({"compact_drift": "inf"})["compact_drift"] == float("inf")


# -- coalescing ----------------------------------------------------------------------------


def test_queued_batches_coalesce_into_one_version(tmp_path):
    registry = _registry(tmp_path)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        host.pause()
        futures = [host.submit(operation) for operation in _operations()]
        assert host.queue_depth == len(futures)
        host.unpause()
        versions = [future.result(timeout=300) for future in futures]

        # One tick, one version, shared by every waiter.
        assert len(host.store) == 2
        assert {version.version for version in versions} == {1}
        assert versions[0].delta.coalesced_operations == 3
        assert host.metrics.counters.publishes == 1
        assert host.metrics.counters.coalesced_operations == 3
        assert host.metrics.counters.append_batches == 2
        assert host.metrics.counters.delete_batches == 1
    finally:
        registry.close()


def test_coalesced_version_matches_sequential_publish(tmp_path):
    registry = _registry(tmp_path)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        host.pause()
        futures = [host.submit(operation) for operation in _operations()]
        host.unpause()
        coalesced = futures[-1].result(timeout=300)
    finally:
        registry.close()

    twin = _twin_publisher()
    twin.publish()
    sequential = _apply_sequentially(twin, _operations())

    # Same rows, same groups, risks within 1e-12 of the sequential stream -
    # intermediate versions simply never exist on the coalesced side.
    assert coalesced.version == 1
    assert sequential.version == len(_operations())
    _assert_same_release(coalesced, sequential)


# -- poisoning isolation -------------------------------------------------------------------


def test_poisoning_is_contained_to_one_stream(tmp_path, monkeypatch):
    registry = _registry(tmp_path)
    try:
        sick = registry.create("sick", SEED_TABLE.rows(), FAST_CONFIG)
        healthy = registry.create("healthy", SEED_TABLE.rows(), FAST_CONFIG)

        def explode(operations):
            sick.publisher._inconsistent = True
            raise StreamError("mid-publication failure")

        monkeypatch.setattr(sick.publisher, "publish_coalesced", explode)
        batch = _table(ROWS[SEED_ROWS:SEED_ROWS + 20])
        future = sick.submit(("append", batch))
        with pytest.raises(StreamError):
            future.result(timeout=300)

        # The stream is poisoned: new writes are refused up front...
        assert sick.poisoned is not None
        with pytest.raises(StreamError, match="poisoned"):
            sick.submit(("append", batch))
        assert sick.metrics.counters.failed_batches == 1
        # ... but history stays servable and the sibling keeps publishing.
        assert len(sick.store) == 1
        assert sick.store[0].n_rows == SEED_ROWS
        version = healthy.submit(("append", batch)).result(timeout=300)
        assert version.version == 1
        assert healthy.poisoned is None
    finally:
        registry.close()


def test_validation_failures_do_not_poison(tmp_path):
    registry = _registry(tmp_path)
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        future = host.submit(("delete", [10**9]))
        with pytest.raises(Exception):
            future.result(timeout=300)
        # Rejected input never began a publication: the stream stays healthy.
        assert host.poisoned is None
        batch = _table(ROWS[SEED_ROWS:SEED_ROWS + 20])
        assert host.submit(("append", batch)).result(timeout=300).version == 1
    finally:
        registry.close()


# -- restart-resume ------------------------------------------------------------------------


def test_restart_resumes_every_stream_identically(tmp_path):
    operations = _operations()
    first = _registry(tmp_path)
    try:
        host = first.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        for operation in operations[:2]:
            host.submit(operation).result(timeout=300)
        first.create("second", SEED_TABLE.rows(), FAST_CONFIG)
        lineage_before = host.store.lineage()
    finally:
        first.close()

    second = _registry(tmp_path)
    try:
        assert second.names() == ["census", "second"]
        resumed = second.get("census")
        assert resumed.store.lineage() == lineage_before
        # The next version after a restart is identical to an uninterrupted
        # publisher's: same groups, risks within 1e-12.
        final = resumed.submit(operations[2]).result(timeout=300)
    finally:
        second.close()

    twin = _twin_publisher()
    twin.publish()
    expected = _apply_sequentially(twin, operations)
    assert final.version == expected.version == 3
    _assert_same_release(final, expected)


def test_resume_fails_loudly_on_unreadable_config(tmp_path):
    registry = _registry(tmp_path)
    try:
        registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
    finally:
        registry.close()
    (tmp_path / "data" / "census" / "stream.json").write_text("{broken")
    with pytest.raises(StreamError, match="census"):
        _registry(tmp_path)


@pytest.mark.parametrize("bad", [float("inf"), 1e20, float("nan"), -1.0])
def test_rejects_coalescing_windows_the_writer_cannot_wait(tmp_path, bad):
    # The window becomes the writer thread's queue wait timeout; one beyond
    # threading.TIMEOUT_MAX would kill the thread on its first tick and hang
    # every later write, so construction refuses it up front.
    with pytest.raises(BadRequest, match="coalesce_ms"):
        StreamRegistry(tmp_path / "data", coalesce_ms=bad)


def test_longest_allowed_window_keeps_the_writer_alive(tmp_path):
    # The largest accepted window is a real wait: the writer sits in it
    # without dying, and close() still flushes the pending tick.
    registry = StreamRegistry(
        tmp_path / "data", coalesce_ms=threading.TIMEOUT_MAX * 1000.0
    )
    try:
        host = registry.create("census", SEED_TABLE.rows(), FAST_CONFIG)
        future = host.submit(("append", _table(ROWS[SEED_ROWS:SEED_ROWS + 20])))
        with pytest.raises(FutureTimeout):
            future.result(timeout=0.5)
        assert host._worker.is_alive()
    finally:
        registry.close()
    assert future.result(timeout=300).version == 1


# -- one publication path: the stream's own host thread -----------------------------------


def test_every_tick_publishes_on_its_stream_host_thread(tmp_path, monkeypatch):
    registry = _registry(tmp_path)
    try:
        hosts = [
            registry.create(name, SEED_TABLE.rows(), FAST_CONFIG)
            for name in ("census", "second")
        ]
        seen = {}
        for host in hosts:
            publish = host.publisher.publish_coalesced

            def record(operations, host=host, publish=publish):
                seen[host] = threading.current_thread()
                return publish(operations)

            monkeypatch.setattr(host.publisher, "publish_coalesced", record)
        batch = _table(ROWS[SEED_ROWS:SEED_ROWS + 20])
        for host in hosts:
            assert host.submit(("append", batch)).result(timeout=300).version == 1

        # Each stream publishes on its own writer thread, never the caller's,
        # and no publication leaves a child process behind.
        assert {host: host._worker for host in hosts} == seen
        assert threading.current_thread() not in seen.values()
        assert multiprocessing.active_children() == []
    finally:
        registry.close()


def test_shard_of_a_poisoned_stream_resumes_after_restart(tmp_path, monkeypatch):
    first = _registry(tmp_path)
    try:
        host = first.create("census", SEED_TABLE.rows(), FAST_CONFIG)

        def explode(operations):
            host.publisher._inconsistent = True
            raise StreamError("mid-publication failure")

        monkeypatch.setattr(host.publisher, "publish_coalesced", explode)
        batch = _table(ROWS[SEED_ROWS:SEED_ROWS + 30])
        with pytest.raises(StreamError):
            host.submit(("append", batch)).result(timeout=300)
        assert host.poisoned is not None
    finally:
        first.close()

    # The failure struck before anything was persisted: a fresh registry
    # resumes the seed version and publishes on, matching an uninterrupted
    # publisher that never saw the failed tick.
    second = _registry(tmp_path)
    try:
        resumed = second.get("census")
        assert resumed.poisoned is None
        assert len(resumed.store) == 1
        final = resumed.submit(("append", batch)).result(timeout=300)
    finally:
        second.close()

    twin = _twin_publisher()
    twin.publish()
    expected = _apply_sequentially(twin, [("append", batch)])
    assert final.version == expected.version == 1
    _assert_same_release(final, expected)
