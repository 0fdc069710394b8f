"""Bounded memory for disk-backed release stores.

A disk-backed :class:`~repro.stream.ReleaseStore` keeps only its latest
version resident; every older version is demoted to the lazy stub that a
reopened store builds, and is decoded from its archive on each access.
The contracts:

* after any number of versions at most one entry is resident;
* every historical version reads back byte-identical to what was
  published (table codes, groups, per-adversary risks);
* ``lineage()`` is unchanged by demotion and by reopening the store;
* a failed write leaves the store as it was;
* an in-memory store keeps every version resident.
"""

import dataclasses
import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.privacy.models import DistinctLDiversity
from repro.stream import IncrementalPublisher, ReleaseStore

SEED_ROWS = 300
APPEND_ROWS = 10
VERSIONS = 30


def _snapshot(version):
    """Copies of what a version published: codes, groups and risks."""
    table = version.release.table
    return {
        "codes": {name: table.codes(name).copy() for name in table.schema.names},
        "groups": [group.copy() for group in version.release.groups],
        "risks": [entry.attack.risks.copy() for entry in version.report.entries],
    }


def _assert_same_bytes(expected, actual):
    assert expected.dtype == actual.dtype
    assert expected.shape == actual.shape
    assert expected.tobytes() == np.asarray(actual).tobytes()


def _publisher(store_path=None, seed=23):
    full = generate_adult(SEED_ROWS + APPEND_ROWS * VERSIONS, seed=seed)
    publisher = IncrementalPublisher(
        full.select(np.arange(SEED_ROWS)),
        DistinctLDiversity(3),
        skyline=[(0.3, 0.3)],
        k=4,
        store_path=store_path,
    )
    return publisher, full


def _append(publisher, full, index):
    start = SEED_ROWS + APPEND_ROWS * index
    return publisher.append(full.select(np.arange(start, start + APPEND_ROWS)))


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """A 30-version disk-backed stream with what each step published and listed."""
    store_dir = tmp_path_factory.mktemp("memory") / "store"
    publisher, full = _publisher(store_dir)
    versions = [publisher.publish()]
    resident_counts = [sum(v is not None for v in publisher.store._versions)]
    lineages = [publisher.store.lineage()]
    snapshots = [_snapshot(versions[0])]
    for index in range(VERSIONS - 1):
        versions.append(_append(publisher, full, index))
        resident_counts.append(sum(v is not None for v in publisher.store._versions))
        lineages.append(publisher.store.lineage())
        snapshots.append(_snapshot(versions[-1]))
    yield publisher, store_dir, versions, resident_counts, lineages, snapshots
    publisher.close()


def test_only_the_latest_version_stays_resident(published):
    publisher, _, versions, resident_counts, _, _ = published
    assert len(publisher.store) == VERSIONS
    assert resident_counts == [1] * VERSIONS
    assert publisher.store._versions[-1] is versions[-1]
    assert publisher.store.latest() is versions[-1]


def test_history_reads_back_byte_identical(published):
    publisher, _, _, _, _, snapshots = published
    for position, expected in enumerate(snapshots):
        version = publisher.store[position]
        assert version.version == position
        for name, codes in expected["codes"].items():
            _assert_same_bytes(codes, version.release.table.codes(name))
        assert len(version.release.groups) == len(expected["groups"])
        for group, decoded in zip(expected["groups"], version.release.groups):
            _assert_same_bytes(group, decoded)
        for risks, entry in zip(expected["risks"], version.report.entries):
            _assert_same_bytes(risks, entry.attack.risks)


def test_lineage_is_unchanged_by_demotion_and_resume(published, decoded):
    publisher, store_dir, versions, _, lineages, _ = published

    def as_json(rows):
        return json.dumps(rows, sort_keys=True)

    # Each step's lineage listed the newest version while it was resident;
    # the next step's lists it demoted.
    for before, after in zip(lineages, lineages[1:]):
        assert as_json(after[: len(before)]) == as_json(before)
    final = as_json(publisher.store.lineage())
    assert final == as_json(lineages[-1])
    # The same versions held resident by an in-memory store list identically.
    resident = ReleaseStore()
    for version in versions:
        resident.add(version)
    assert as_json(resident.lineage()) == final
    reopened = ReleaseStore(path=store_dir, schema=adult_schema())
    assert as_json(reopened.lineage()) == final
    assert decoded == []
    for position in range(len(versions)):
        assert reopened.summary(position) == publisher.store.summary(position)


def test_summary_reads_decode_no_archive(published, decoded):
    publisher, _, versions, _, _, _ = published
    for position in (0, VERSIONS // 2, VERSIONS - 1):
        summary = publisher.store.summary(position)
        assert json.dumps(summary, sort_keys=True) == json.dumps(
            versions[position].as_dict(), sort_keys=True
        )
    assert publisher.store.report_delta(VERSIONS - 1) is not None
    assert decoded == []


def test_in_memory_store_keeps_every_version_resident():
    publisher, full = _publisher()
    versions = [publisher.publish()] + [_append(publisher, full, i) for i in range(4)]
    assert all(
        publisher.store._versions[position] is version
        for position, version in enumerate(versions)
    )
    assert all(payload is None for payload in publisher.store._payloads)


@pytest.mark.parametrize("failing", ["savez", "state"])
def test_failed_write_leaves_the_store_as_it_was(tmp_path, monkeypatch, failing):
    publisher, full = _publisher()
    versions = [publisher.publish()] + [_append(publisher, full, i) for i in range(2)]
    store = ReleaseStore(path=tmp_path / "store", schema=adult_schema())
    store.add(versions[0], state={"step": 0})
    store.add(versions[1], state={"step": 1})
    lineage = json.dumps(store.lineage(), sort_keys=True)

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    # The archive write, or the state write after the lineage line.
    module, name = (np, "savez") if failing == "savez" else (os, "replace")
    with monkeypatch.context() as patch:
        patch.setattr(module, name, disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.add(versions[2], state={"step": 2})
    assert len(store) == 2
    assert json.dumps(store.lineage(), sort_keys=True) == lineage
    assert store.latest() is versions[1]
    assert store.state == {"step": 1}
    assert store.add(versions[2], state={"step": 2}) is versions[2]
    assert len(store) == 3 and store.state == {"step": 2}
    reopened = ReleaseStore(path=tmp_path / "store", schema=adult_schema())
    assert json.dumps(reopened.lineage(), sort_keys=True) == json.dumps(
        store.lineage(), sort_keys=True
    )
    assert reopened.state == {"step": 2}
    store.close()


def test_failed_first_write_leaves_no_lineage(tmp_path, monkeypatch):
    publisher, _ = _publisher()
    seed = publisher.publish()
    store = ReleaseStore(path=tmp_path / "store", schema=adult_schema())

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.add(seed, state={"step": 0})
    assert len(store) == 0 and store.state is None
    assert not (tmp_path / "store" / "lineage.jsonl").exists()
    assert store.add(seed, state={"step": 0}) is seed
    assert len(ReleaseStore(path=tmp_path / "store", schema=adult_schema())) == 1
    store.close()


def test_a_demoted_stub_equals_a_resumed_one(tmp_path):
    publisher, full = _publisher(tmp_path / "store")
    publisher.publish()
    _append(publisher, full, 0)
    reopened = ReleaseStore(path=tmp_path / "store", schema=adult_schema())
    assert publisher.store._versions[0] is None
    assert publisher.store._payloads[0] == reopened._payloads[0]
    publisher.close()


@pytest.mark.parametrize("reopened", [False, True], ids=["live", "reopened"])
def test_readers_always_find_a_demoted_version(tmp_path, reopened):
    """Reader threads racing the demotion always see the object or its payload.

    On a reopened store the readers also decode the latest, which is kept,
    while the writer adds and demotes: one version stays resident throughout.
    """
    publisher, full = _publisher()
    template = [publisher.publish(), _append(publisher, full, 0)]
    versions = [dataclasses.replace(template[i % 2], version=i) for i in range(40)]
    expected = [json.dumps(version.as_dict(), sort_keys=True) for version in versions]
    store = ReleaseStore(path=tmp_path / "store", schema=adult_schema())
    store.add(versions[0])
    if reopened:
        store.add(versions[1])
        store.close()
        store = ReleaseStore(path=tmp_path / "store", schema=adult_schema())
        assert store._versions == [None, None]
    done = threading.Event()
    errors = []

    def read(seed):
        rng = np.random.default_rng(seed)
        try:
            while not done.is_set():
                position = int(rng.integers(len(store)))
                if json.dumps(store.summary(position), sort_keys=True) != expected[position]:
                    errors.append(f"summary {position}")
                # Every reader decodes: the store runs one decode at a time.
                if store[position].n_rows != versions[position].n_rows:
                    errors.append(f"version {position}")
        except Exception as error:  # a reader that saw neither object nor payload
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
    try:
        for reader in readers:
            reader.start()
        for version in versions[len(store):]:
            store.add(version)
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert errors == []
    assert sum(version is not None for version in store._versions) == 1
    store.close()


def test_concurrent_readers_of_a_demoted_version_decode_one_at_a_time(
    tmp_path, monkeypatch
):
    """Readers of a demoted version each decode it, never two at once."""
    publisher, full = _publisher()
    template = [publisher.publish(), _append(publisher, full, 0)]
    store = ReleaseStore(path=tmp_path / "store", schema=adult_schema())
    store.add(template[0])
    store.add(dataclasses.replace(template[1], version=1))
    assert store._versions[0] is None
    loads = []
    in_flight = [0]
    overlaps = []
    count_lock = threading.Lock()
    started = threading.Barrier(4)
    decode = ReleaseStore._load_version

    def counted(self, payload):
        with count_lock:
            in_flight[0] += 1
            overlaps.append(in_flight[0] > 1)
            loads.append(int(payload["version"]))
        try:
            return decode(self, payload)
        finally:
            with count_lock:
                in_flight[0] -= 1

    monkeypatch.setattr(ReleaseStore, "_load_version", counted)
    results = [None] * 4

    def read(slot):
        started.wait()
        results[slot] = store[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
    try:
        for reader in readers:
            reader.start()
    finally:
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert loads == [0, 0, 0, 0]  # nothing memoises a historical version
    assert overlaps == [False] * 4
    expected = json.dumps(template[0].as_dict(), sort_keys=True)
    for result in results:
        assert json.dumps(result.as_dict(), sort_keys=True) == expected
        for name in adult_schema().names:
            _assert_same_bytes(
                template[0].release.table.codes(name), result.release.table.codes(name)
            )
    assert sum(version is not None for version in store._versions) == 1
    store.close()
