"""The byte-bounded version cache and the lazy disk-backed ReleaseStore.

Two layers under test:

* :class:`~repro.stream.VersionCache` in isolation - LRU eviction against a
  byte budget, hit/miss/eviction counters, the keep-the-most-recent rule;
* the lazy :class:`~repro.stream.ReleaseStore`: opening a persisted store
  decodes **no** version archive (lineage and audit deltas come from the
  JSON payloads); the first access of a version decodes it through the
  cache, repeated access is a hit, and a shared cache makes the budget
  global across stores - the fix for the serving daemon inflating a full
  npz per ``GET /streams/<s>/versions/<v>``.
"""

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.exceptions import StreamError
from repro.privacy.models import DistinctLDiversity
from repro.stream import (
    DEFAULT_VERSION_CACHE_BYTES,
    IncrementalPublisher,
    ReleaseStore,
    VersionCache,
)

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


# -- the cache in isolation -----------------------------------------------------------


def test_lru_eviction_respects_the_byte_budget():
    cache = VersionCache(max_bytes=100)
    cache.put(("a",), "version-a", 40)
    cache.put(("b",), "version-b", 40)
    cache.put(("c",), "version-c", 40)  # 120 bytes: "a" must go
    assert len(cache) == 2
    assert cache.current_bytes == 80
    assert cache.get(("a",)) is None
    assert cache.get(("b",)) == "version-b"
    assert cache.get(("c",)) == "version-c"
    assert cache.evictions == 1


def test_get_refreshes_recency():
    cache = VersionCache(max_bytes=100)
    cache.put(("a",), "version-a", 40)
    cache.put(("b",), "version-b", 40)
    assert cache.get(("a",)) == "version-a"  # "a" is now the most recent
    cache.put(("c",), "version-c", 40)
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == "version-a"


def test_oversized_most_recent_entry_survives():
    cache = VersionCache(max_bytes=10)
    cache.put(("huge",), "version-huge", 1000)
    assert cache.get(("huge",)) == "version-huge"
    cache.put(("other",), "version-other", 2000)
    assert cache.get(("huge",)) is None
    assert cache.get(("other",)) == "version-other"


def test_replacing_a_key_does_not_leak_bytes():
    cache = VersionCache(max_bytes=1000)
    cache.put(("a",), "old", 300)
    cache.put(("a",), "new", 200)
    assert cache.current_bytes == 200
    assert len(cache) == 1
    assert cache.get(("a",)) == "new"


def test_stats_counters():
    cache = VersionCache(max_bytes=50)
    assert cache.get(("absent",)) is None
    cache.put(("a",), "version-a", 20)
    cache.get(("a",))
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["bytes"] == 20
    assert stats["max_bytes"] == 50


def test_negative_budget_rejected():
    with pytest.raises(StreamError, match="non-negative"):
        VersionCache(max_bytes=-1)


def test_default_budget_is_sane():
    assert VersionCache().max_bytes == DEFAULT_VERSION_CACHE_BYTES == 256 * 1024 * 1024


# -- the lazy store -------------------------------------------------------------------


def test_opening_a_store_decodes_no_archive(tmp_path):
    store_dir = _publish_stream(tmp_path)
    cache = VersionCache()
    store = ReleaseStore(path=store_dir, schema=adult_schema(), version_cache=cache)
    assert len(store) == 3
    # Lineage and audit deltas are served from the persisted JSON payloads.
    lineage = store.lineage()
    assert [row["version"] for row in lineage] == [0, 1, 2]
    assert store.report_delta(1) is not None
    assert len(cache) == 0 and cache.misses == 0  # nothing was decoded


def test_first_access_decodes_through_the_cache(tmp_path):
    store_dir = _publish_stream(tmp_path)
    cache = VersionCache()
    store = ReleaseStore(path=store_dir, schema=adult_schema(), version_cache=cache)
    first = store[1]
    assert cache.misses == 1 and cache.hits == 0 and len(cache) == 1
    again = store[1]
    assert again is first and cache.hits == 1  # decoded once, served cached
    fresh = ReleaseStore(path=store_dir, schema=adult_schema(), version_cache=cache)
    assert fresh[1] is first  # the second store hit the shared cache
    assert cache.hits == 2 and cache.misses == 1


def test_shared_cache_budget_is_global_across_stores(tmp_path):
    first_dir = _publish_stream(tmp_path, name="a")
    second_dir = _publish_stream(tmp_path, name="b")
    cache = VersionCache(max_bytes=1)  # everything but the newest evicts
    first = ReleaseStore(path=first_dir, schema=adult_schema(), version_cache=cache)
    second = ReleaseStore(path=second_dir, schema=adult_schema(), version_cache=cache)
    list(first)
    list(second)
    assert len(cache) == 1  # one global budget, not one per store
    assert cache.evictions >= 5


def test_cache_key_tracks_file_identity(tmp_path):
    """A rebuilt store directory must never serve another run's decode."""
    import shutil

    store_dir = _publish_stream(tmp_path)
    cache = VersionCache()
    store = ReleaseStore(path=store_dir, schema=adult_schema(), version_cache=cache)
    baseline = store[0]
    misses = cache.misses
    # Rebuild the directory in place: same paths, a different run's files.
    shutil.rmtree(store_dir)
    shutil.move(str(_publish_stream(tmp_path, name="rebuilt")), str(store_dir))
    reopened = ReleaseStore(path=store_dir, schema=adult_schema(), version_cache=cache)
    fresh = reopened[0]
    assert cache.misses == misses + 1  # different file identity: decoded fresh
    assert fresh is not baseline
    assert fresh.n_rows == baseline.n_rows  # same deterministic content though


def test_lazy_lineage_matches_resident_lineage(tmp_path):
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
    assert len(reloaded.version_cache) == 0  # still nothing decoded


def test_live_versions_stay_resident(tmp_path):
    """The version a running publisher just added is resident: no cache round-trip."""
    store_dir = _publish_stream(tmp_path)
    publisher = IncrementalPublisher.resume(
        store_dir, schema=adult_schema(), model=DistinctLDiversity(3)
    )
    cache = publisher.store.version_cache
    full = generate_adult(SEED_ROWS + 300, seed=13)
    version = publisher.append(full.select(np.arange(SEED_ROWS + 200, SEED_ROWS + 300)))
    misses = cache.misses
    assert publisher.store[version.version] is version
    assert publisher.store.latest() is version
    assert cache.misses == misses  # no decode for the live version
