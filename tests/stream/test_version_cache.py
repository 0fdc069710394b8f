"""The lazy disk-backed ReleaseStore: history decodes on access.

Opening a persisted store decodes **no** version archive (lineage and audit
deltas come from the JSON payloads).  An older version is decoded from its
archive on each access and never kept; the latest is decoded once and then
stays resident, as it does in a live publisher.  Decodes are counted as
``ReleaseStore._load_version`` calls (the ``decoded`` fixture).
"""

import numpy as np

from repro.data.adult import adult_schema, generate_adult
from repro.privacy.models import DistinctLDiversity
from repro.stream import IncrementalPublisher, ReleaseStore

SEED_ROWS = 400


def _publish_stream(tmp_path, name="s", batches=2):
    full = generate_adult(SEED_ROWS + 100 * batches, seed=13)
    publisher = IncrementalPublisher(
        full.select(np.arange(SEED_ROWS)),
        DistinctLDiversity(3),
        skyline=[(0.3, 0.3)],
        k=4,
        store_path=tmp_path / name,
    )
    publisher.publish()
    for batch in range(batches):
        start = SEED_ROWS + 100 * batch
        publisher.append(full.select(np.arange(start, start + 100)))
    return tmp_path / name


def test_opening_a_store_decodes_no_archive(tmp_path, decoded):
    store_dir = _publish_stream(tmp_path)
    store = ReleaseStore(path=store_dir, schema=adult_schema())
    assert len(store) == 3
    # Lineage and audit deltas are served from the persisted JSON payloads.
    lineage = store.lineage()
    assert [row["version"] for row in lineage] == [0, 1, 2]
    assert store.report_delta(1) is not None
    assert decoded == []  # nothing was decoded


def test_history_decodes_on_each_access(tmp_path, decoded):
    store_dir = _publish_stream(tmp_path)
    store = ReleaseStore(path=store_dir, schema=adult_schema())
    first = store[1]
    again = store[1]
    assert decoded == [1, 1]  # decoded per access, never kept
    assert again is not first
    assert store._versions[1] is None
    for name in adult_schema().names:
        assert again.release.table.codes(name).tobytes() == (
            first.release.table.codes(name).tobytes()
        )


def test_a_reopened_store_keeps_its_latest_resident(tmp_path, decoded):
    store_dir = _publish_stream(tmp_path)
    store = ReleaseStore(path=store_dir, schema=adult_schema())
    latest = store.latest()
    assert store[2] is latest and store[-1] is latest
    assert decoded == [2]
    assert [position for position, v in enumerate(store._versions) if v is not None] == [2]


def test_iteration_decodes_one_version_at_a_time(tmp_path, decoded):
    store_dir = _publish_stream(tmp_path, batches=5)
    store = ReleaseStore(path=store_dir, schema=adult_schema())
    versions = iter(store)
    assert decoded == []
    assert next(versions).version == 0
    assert decoded == [0]
    assert [version.version for version in versions] == [1, 2, 3, 4, 5]
    assert decoded == [0, 1, 2, 3, 4, 5]


def test_lazy_lineage_matches_resident_lineage(tmp_path, decoded):
    """The payload-served lineage is byte-identical to the live publisher's."""
    import json

    full = generate_adult(SEED_ROWS + 100, seed=17)
    publisher = IncrementalPublisher(
        full.select(np.arange(SEED_ROWS)),
        DistinctLDiversity(3),
        skyline=[(0.3, 0.3)],
        k=4,
        store_path=tmp_path / "s",
    )
    publisher.publish()
    publisher.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 100)))
    reloaded = ReleaseStore(path=tmp_path / "s", schema=adult_schema())
    assert json.dumps(reloaded.lineage(), sort_keys=True) == json.dumps(
        publisher.store.lineage(), sort_keys=True
    )
    assert decoded == []  # still nothing decoded


def test_live_versions_stay_resident(tmp_path, decoded):
    """The version a running publisher just added is resident: no decode."""
    store_dir = _publish_stream(tmp_path)
    publisher = IncrementalPublisher.resume(
        store_dir, schema=adult_schema(), model=DistinctLDiversity(3)
    )
    assert decoded == [2]  # resume decodes the latest once; it stays resident
    full = generate_adult(SEED_ROWS + 300, seed=13)
    version = publisher.append(full.select(np.arange(SEED_ROWS + 200, SEED_ROWS + 300)))
    assert publisher.store[version.version] is version
    assert publisher.store.latest() is version
    assert decoded == [2]  # no decode for the live version
