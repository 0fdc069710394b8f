"""Disk-backed ReleaseStore: round-trips, resume-equivalence, corruption.

Three contracts:

* a persisted store reloads **byte-identically** - lineage JSON, table
  columns and domains, released groups and per-adversary risk vectors;
* a publisher reconstructed mid-stream with ``IncrementalPublisher.resume``
  continues the stream with versions identical to an uninterrupted
  publisher (identical groups, risks within ``1e-12``);
* corrupt or partial store directories raise
  :class:`~repro.exceptions.StreamError` naming the offending file.
"""

import json

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.exceptions import StreamError
from repro.knowledge.backend import EstimatorConfig
from repro.privacy.models import BTPrivacy, DistinctLDiversity
from repro.stream import IncrementalPublisher, ReleaseStore

SEED_ROWS = 500
SKYLINE = [(0.1, 0.3), (0.3, 0.25)]


def _tables(seed=19, extra=300):
    full = generate_adult(SEED_ROWS + extra, seed=seed)
    return full.select(np.arange(SEED_ROWS)), full


def _run_mixed_stream(publisher, full, rng_seed=99):
    """One deterministic append -> delete -> append -> update sequence."""
    rng = np.random.default_rng(rng_seed)
    versions = [publisher.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 150)))]
    removed = np.sort(rng.choice(publisher.table.n_rows, size=40, replace=False))
    versions.append(publisher.delete(removed))
    versions.append(
        publisher.append(full.select(np.arange(SEED_ROWS + 150, SEED_ROWS + 300)))
    )
    positions = np.sort(rng.choice(publisher.table.n_rows, size=25, replace=False))
    donors = rng.integers(0, publisher.table.n_rows, size=25)
    versions.append(
        publisher.update(positions, [publisher.table.row(int(d)) for d in donors])
    )
    return versions


def test_round_trip_is_byte_identical(tmp_path):
    seed_table, full = _tables()
    store_dir = tmp_path / "store"
    publisher = IncrementalPublisher(
        seed_table, BTPrivacy(0.3, 0.25), skyline=SKYLINE, k=4, store_path=store_dir
    )
    publisher.publish()
    _run_mixed_stream(publisher, full)

    reloaded = ReleaseStore(path=store_dir, schema=adult_schema())
    assert len(reloaded) == len(publisher.store) == 5
    assert json.dumps(reloaded.lineage(), sort_keys=True) == json.dumps(
        publisher.store.lineage(), sort_keys=True
    )
    for original, loaded in zip(publisher.store, reloaded):
        assert original.version == loaded.version
        assert original.release.method == loaded.release.method
        assert all(
            np.array_equal(a, b)
            for a, b in zip(original.release.groups, loaded.release.groups)
        )
        for name in seed_table.schema.names:
            assert np.array_equal(
                original.release.table.column(name), loaded.release.table.column(name)
            )
            assert np.array_equal(
                original.release.table.domain(name).values,
                loaded.release.table.domain(name).values,
            )
        assert all(
            np.array_equal(a.attack.risks, b.attack.risks)
            for a, b in zip(original.report.entries, loaded.report.entries)
        )
        assert original.delta.as_dict() == loaded.delta.as_dict()
    assert reloaded.state is not None
    assert reloaded.state["model"] == publisher.describe().split(" | ")[0]


def test_resume_then_continue_equals_uninterrupted(tmp_path):
    seed_table, full = _tables(seed=23)

    uninterrupted = IncrementalPublisher(
        seed_table,
        BTPrivacy(0.3, 0.25),
        skyline=SKYLINE,
        k=4,
        store_path=tmp_path / "a",
    )
    uninterrupted.publish()
    _run_mixed_stream(uninterrupted, full)

    # The interrupted twin: same first two mutations, then a process
    # "restart" (resume from disk), then the remaining mutations.
    interrupted = IncrementalPublisher(
        seed_table,
        BTPrivacy(0.3, 0.25),
        skyline=SKYLINE,
        k=4,
        store_path=tmp_path / "b",
    )
    interrupted.publish()
    rng = np.random.default_rng(99)
    interrupted.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 150)))
    removed = np.sort(rng.choice(interrupted.table.n_rows, size=40, replace=False))
    interrupted.delete(removed)
    del interrupted

    resumed = IncrementalPublisher.resume(
        tmp_path / "b", schema=adult_schema(), model=BTPrivacy(0.3, 0.25)
    )
    resumed.append(full.select(np.arange(SEED_ROWS + 150, SEED_ROWS + 300)))
    positions = np.sort(rng.choice(resumed.table.n_rows, size=25, replace=False))
    donors = rng.integers(0, resumed.table.n_rows, size=25)
    resumed.update(positions, [resumed.table.row(int(d)) for d in donors])

    assert len(resumed.store) == len(uninterrupted.store) == 5
    for reference, version in zip(uninterrupted.store, resumed.store):
        assert reference.n_rows == version.n_rows
        assert reference.n_groups == version.n_groups
        assert all(
            np.array_equal(a, b)
            for a, b in zip(reference.release.groups, version.release.groups)
        )
        difference = max(
            float(np.abs(a.attack.risks - b.attack.risks).max())
            for a, b in zip(reference.report.entries, version.report.entries)
        )
        assert difference <= 1e-12


def test_resume_serves_historical_versions(tmp_path):
    seed_table, full = _tables(seed=29)
    publisher = IncrementalPublisher(
        seed_table,
        DistinctLDiversity(3),
        skyline=[(0.3, 0.3)],
        k=4,
        store_path=tmp_path / "store",
    )
    publisher.publish()
    _run_mixed_stream(publisher, full)
    del publisher

    resumed = IncrementalPublisher.resume(
        tmp_path / "store", schema=adult_schema(), model=DistinctLDiversity(3)
    )
    assert [version.version for version in resumed.store] == list(range(5))
    v1 = resumed.store[1]
    assert v1.delta.appended_rows == 150
    assert v1.n_rows == SEED_ROWS + 150
    assert resumed.store.report_delta(1) is not None


def test_resume_applies_the_stored_kernel_and_budget(tmp_path):
    """The store governs kernel and max_cells; the caller's config keeps jobs."""
    seed_table, _ = _tables(seed=31, extra=0)
    publisher = IncrementalPublisher(
        seed_table,
        DistinctLDiversity(3),
        skyline=[(0.3, 0.3)],
        k=4,
        config=EstimatorConfig(kernel="triangular", max_cells=20_000, jobs=1),
        store_path=tmp_path / "store",
    )
    publisher.publish()
    publisher.close()
    resumed = IncrementalPublisher.resume(
        tmp_path / "store",
        schema=adult_schema(),
        model=DistinctLDiversity(3),
        config=EstimatorConfig(kernel="gaussian", jobs=2),
    )
    assert resumed.config == EstimatorConfig(kernel="triangular", max_cells=20_000, jobs=2)
    state = resumed.store.state
    assert (state["kernel"], state["max_cells"]) == ("triangular", 20_000)


def test_fresh_store_dir_requires_no_schema(tmp_path):
    store = ReleaseStore(path=tmp_path / "fresh")
    assert len(store) == 0
    assert (tmp_path / "fresh").is_dir()


def test_loading_without_schema_raises(tmp_path):
    seed_table, _ = _tables(seed=31)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    with pytest.raises(StreamError, match="requires a schema"):
        ReleaseStore(path=tmp_path / "s")


def test_corrupt_lineage_line_raises(tmp_path):
    seed_table, _ = _tables(seed=37)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    lineage = tmp_path / "s" / "lineage.jsonl"
    lineage.write_text(lineage.read_text() + "{not json\n")
    with pytest.raises(StreamError, match="not valid JSON"):
        ReleaseStore(path=tmp_path / "s", schema=adult_schema())


def test_missing_version_file_raises(tmp_path):
    seed_table, full = _tables(seed=41)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    publisher.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 100)))
    (tmp_path / "s" / "version-00001.npz").unlink()
    with pytest.raises(StreamError, match="version-00001.npz is missing"):
        ReleaseStore(path=tmp_path / "s", schema=adult_schema())


def test_lineage_gap_raises(tmp_path):
    seed_table, full = _tables(seed=43)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    publisher.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 100)))
    lineage = tmp_path / "s" / "lineage.jsonl"
    lines = lineage.read_text().splitlines()
    lineage.write_text(lines[1] + "\n")  # drop version 0: the lineage gaps
    with pytest.raises(StreamError, match="contiguous"):
        ReleaseStore(path=tmp_path / "s", schema=adult_schema())


def test_resume_refuses_model_mismatch(tmp_path):
    seed_table, _ = _tables(seed=47)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    with pytest.raises(StreamError, match="model mismatch"):
        IncrementalPublisher.resume(
            tmp_path / "s", schema=adult_schema(), model=DistinctLDiversity(4)
        )


def test_resume_requires_versions_and_state(tmp_path):
    ReleaseStore(path=tmp_path / "empty")
    with pytest.raises(StreamError, match="no versions"):
        IncrementalPublisher.resume(
            tmp_path / "empty", schema=adult_schema(), model=DistinctLDiversity(3)
        )


def test_publish_refuses_already_populated_store_dir(tmp_path):
    seed_table, _ = _tables(seed=53)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    reopened = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    with pytest.raises(StreamError, match="already published"):
        reopened.publish()


def test_corrupt_domain_array_raises_stream_error(tmp_path):
    """Decoding failures inside a version file surface as StreamError naming
    the version, not as a bare DataError.  Versions decode lazily, so the
    corruption is caught on first access, not at open."""
    seed_table, _ = _tables(seed=59)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    path = tmp_path / "s" / "version-00000.npz"
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["dom_Age"] = arrays["dom_Age"][:-2]  # truncate the Age domain
    np.savez_compressed(path, **arrays)
    store = ReleaseStore(path=tmp_path / "s", schema=adult_schema())
    with pytest.raises(StreamError, match="version 0 cannot be decoded"):
        store[0]


def test_risks_shape_mismatch_raises_stream_error(tmp_path):
    seed_table, _ = _tables(seed=61)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), skyline=[(0.3, 0.3)], k=4,
        store_path=tmp_path / "s",
    )
    publisher.publish()
    path = tmp_path / "s" / "version-00000.npz"
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["risks"] = arrays["risks"][:, :-5]  # truncate the risk vectors
    np.savez_compressed(path, **arrays)
    store = ReleaseStore(path=tmp_path / "s", schema=adult_schema())
    with pytest.raises(StreamError, match="risks"):
        store.latest()


def test_resume_refuses_mid_persist_interrupted_store(tmp_path):
    """A crash between the lineage append and the state.json replace leaves
    the two files one version apart; resuming from the stale tree must
    refuse instead of publishing wrong groups."""
    seed_table, full = _tables(seed=67)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    stale_state = (tmp_path / "s" / "state.json").read_text()
    publisher.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 150)))
    # Simulate the crash window: v1 is in the lineage, state.json is v0's.
    (tmp_path / "s" / "state.json").write_text(stale_state)
    with pytest.raises(StreamError, match="interrupted mid-persist"):
        IncrementalPublisher.resume(
            tmp_path / "s", schema=adult_schema(), model=DistinctLDiversity(3)
        )


def test_legacy_col_archives_are_refused(tmp_path):
    """Pre-v2 archives (compressed ``col_<name>`` raw-value members, no
    ``codes_<name>`` columns) no longer decode: reading one raises
    StreamError naming the version file."""
    seed_table, _ = _tables(seed=71)
    publisher = IncrementalPublisher(
        seed_table, BTPrivacy(0.3, 0.25), skyline=SKYLINE, k=4,
        store_path=tmp_path / "s",
    )
    version = publisher.publish()
    table = version.release.table
    arrays = {}
    for attribute in table.schema:
        name = attribute.name
        dtype = np.float64 if attribute.is_numeric else np.str_
        arrays[f"col_{name}"] = np.asarray(table.column(name), dtype=dtype)
        arrays[f"dom_{name}"] = np.asarray(table.domain(name).values, dtype=dtype)
    arrays["groups"] = np.concatenate(version.release.groups).astype(np.int64)
    arrays["group_sizes"] = np.asarray([len(g) for g in version.release.groups])
    np.savez_compressed(tmp_path / "s" / "version-00000.npz", **arrays)

    reloaded = ReleaseStore(path=tmp_path / "s", schema=adult_schema())
    with pytest.raises(StreamError, match=r"version 0 cannot be decoded.*version-00000\.npz"):
        reloaded[0]


@pytest.mark.parametrize("max_cells", [0, -1])
def test_resume_refuses_a_recorded_cell_budget_below_one(tmp_path, max_cells):
    """An impossible recorded budget is a corrupt state.json, not a bare
    KnowledgeError from the estimator config."""
    seed_table, _ = _tables(seed=73, extra=0)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, store_path=tmp_path / "s"
    )
    publisher.publish()
    publisher.close()
    state_path = tmp_path / "s" / "state.json"
    state = json.loads(state_path.read_text())
    state["max_cells"] = max_cells
    state_path.write_text(json.dumps(state))
    with pytest.raises(StreamError, match="state.json cannot be decoded"):
        IncrementalPublisher.resume(
            tmp_path / "s", schema=adult_schema(), model=DistinctLDiversity(3)
        )
