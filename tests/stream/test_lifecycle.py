"""Full-lifecycle publisher tests: deletions, in-place corrections, compaction.

The acceptance property mirrors the append-only stream tests: after every
mutation - append, delete or update - the maintained per-adversary audit
risks must equal a from-scratch skyline audit of the published release on
the current table to ``<= 1e-12``, across (B,t) and l-diversity models and
both Mondrian split strategies, and every version must be a valid release
(full row coverage, every group satisfying the requirement and ``k``).
"""

import numpy as np
import pytest

from repro.audit.engine import SkylineAuditEngine
from repro.data.adult import generate_adult
from repro.data.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.data.table import MicrodataTable
from repro.exceptions import StreamError
from repro.privacy.measures import SmoothedJSDivergence, sensitive_distance_measure
from repro.privacy.models import (
    BTPrivacy,
    DistinctLDiversity,
    ProbabilisticLDiversity,
)
from repro.stream import IncrementalPublisher

SEED_ROWS = 700
BATCH_ROWS = 100
SKYLINE = [(0.1, 0.3), (0.3, 0.25), (0.5, 0.25)]


def _stream_tables(seed=17, batches=2):
    full = generate_adult(SEED_ROWS + batches * BATCH_ROWS, seed=seed)
    seed_table = full.select(np.arange(SEED_ROWS))
    slices = [
        full.select(
            np.arange(SEED_ROWS + i * BATCH_ROWS, SEED_ROWS + (i + 1) * BATCH_ROWS)
        )
        for i in range(batches)
    ]
    return seed_table, slices


def _assert_exact_and_valid(publisher, version, requirement_checks):
    release = version.release
    covered = np.concatenate(release.groups)
    assert sorted(covered.tolist()) == list(range(release.table.n_rows))
    for group in release.groups:
        assert group.size > 0
        for check in requirement_checks:
            assert check(group)
    if version.report is not None:
        fresh = SkylineAuditEngine(publisher.table, SKYLINE).audit(release.groups)
        for entry, reference in zip(version.report.entries, fresh.entries):
            assert (
                float(np.abs(entry.attack.risks - reference.attack.risks).max())
                <= 1e-12
            )
            assert entry.attack.vulnerable_tuples == reference.attack.vulnerable_tuples


@pytest.mark.parametrize("split_strategy", ["widest", "round_robin"])
@pytest.mark.parametrize(
    "model_factory",
    [
        lambda: BTPrivacy(0.3, 0.25),
        lambda: DistinctLDiversity(3),
        lambda: ProbabilisticLDiversity(2.0),
    ],
    ids=["bt", "distinct-l", "probabilistic-l"],
)
def test_mixed_lifecycle_matches_full_reaudit(model_factory, split_strategy):
    """Append -> delete -> update, twice: every version audits identically to
    a from-scratch skyline audit and stays a valid release."""
    seed_table, batches = _stream_tables()
    model = model_factory()
    publisher = IncrementalPublisher(
        seed_table, model, skyline=SKYLINE, k=4, split_strategy=split_strategy
    )
    publisher.publish()
    rng = np.random.default_rng(31)
    checks = [lambda group: group.size >= 4, model.is_satisfied]
    for batch in batches:
        version = publisher.append(batch)
        _assert_exact_and_valid(publisher, version, checks)
        removed = np.sort(rng.choice(publisher.table.n_rows, size=30, replace=False))
        version = publisher.delete(removed)
        _assert_exact_and_valid(publisher, version, checks)
        positions = np.sort(rng.choice(publisher.table.n_rows, size=25, replace=False))
        donors = rng.integers(0, publisher.table.n_rows, size=25)
        replacements = [publisher.table.row(int(donor)) for donor in donors]
        version = publisher.update(positions, replacements)
        _assert_exact_and_valid(publisher, version, checks)


def test_delete_merges_up_groups_that_fall_below_k():
    """Deleting most of one released group leaves it below k: the engine must
    merge the region up (or rebuild it) rather than release the shard."""
    seed_table, _ = _stream_tables(seed=23)
    model = DistinctLDiversity(3)
    publisher = IncrementalPublisher(seed_table, model, skyline=[(0.3, 0.3)], k=4)
    version = publisher.publish()
    victim = max(version.release.groups, key=lambda group: group.size)
    removed = victim[: victim.size - 1]  # leave a single row behind
    version = publisher.delete(removed)
    for group in version.release.groups:
        assert group.size >= 4
        assert model.is_satisfied(group)
    covered = np.concatenate(version.release.groups)
    assert sorted(covered.tolist()) == list(range(publisher.table.n_rows))
    assert version.delta.rebuilt_regions >= 1


def test_delete_entire_group_prunes_the_leaf():
    seed_table, _ = _stream_tables(seed=29)
    model = DistinctLDiversity(3)
    publisher = IncrementalPublisher(seed_table, model, k=4)
    version = publisher.publish()
    victim = version.release.groups[0]
    version = publisher.delete(victim)
    covered = np.concatenate(version.release.groups)
    assert sorted(covered.tolist()) == list(range(publisher.table.n_rows))
    for group in version.release.groups:
        assert group.size >= 4 and model.is_satisfied(group)


def test_clean_groups_survive_deletions_verbatim():
    seed_table, _ = _stream_tables(seed=37)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), skyline=[(0.3, 0.3)], k=4
    )
    v0 = publisher.publish()
    removed = v0.release.groups[0][:2]
    v1 = publisher.delete(removed)
    assert v1.delta.deleted_rows == removed.size
    assert v1.delta.reused_groups > 0
    # The delta audit really skipped clean groups.
    assert all(
        recomputed < v1.n_groups for recomputed in v1.delta.audit_recomputed_groups
    )


def test_compaction_triggers_and_resets_drift():
    seed_table, batches = _stream_tables(seed=41, batches=2)
    publisher = IncrementalPublisher(
        seed_table,
        DistinctLDiversity(3),
        skyline=[(0.3, 0.3)],
        k=4,
        compact_drift=0.01,  # any deferred maintenance triggers compaction
    )
    publisher.publish()
    rng = np.random.default_rng(43)
    removed = np.sort(rng.choice(publisher.table.n_rows, size=40, replace=False))
    # The retraction itself crosses the tiny drift threshold: this version
    # publishes through a full-refine compaction and resets the drift.
    version = publisher.delete(removed)
    assert version.delta.compacted
    assert version.delta.deleted_rows == 40
    assert publisher._drift_rows == 0
    fresh = SkylineAuditEngine(publisher.table, [(0.3, 0.3)]).audit(
        version.release.groups
    )
    for entry, reference in zip(version.report.entries, fresh.entries):
        assert float(np.abs(entry.attack.risks - reference.attack.risks).max()) <= 1e-12
    # An append below the threshold stays incremental afterwards.
    version = publisher.append(batches[0])
    fresh = SkylineAuditEngine(publisher.table, [(0.3, 0.3)]).audit(
        version.release.groups
    )
    for entry, reference in zip(version.report.entries, fresh.entries):
        assert float(np.abs(entry.attack.risks - reference.attack.risks).max()) <= 1e-12


def test_compaction_disabled_with_infinite_threshold():
    seed_table, batches = _stream_tables(seed=43, batches=1)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), k=4, compact_drift=float("inf")
    )
    publisher.publish()
    rng = np.random.default_rng(47)
    for _ in range(3):
        removed = np.sort(rng.choice(publisher.table.n_rows, size=50, replace=False))
        version = publisher.delete(removed)
        assert not version.delta.compacted


def test_out_of_domain_update_triggers_full_rebuild():
    seed_table, _ = _stream_tables(seed=47)
    publisher = IncrementalPublisher(
        seed_table, DistinctLDiversity(3), skyline=[(0.3, 0.3)], k=4
    )
    publisher.publish()
    replacement = dict(seed_table.row(0), Age=123.0)  # outside the observed domain
    version = publisher.update([0], [replacement])
    assert version.delta.rebuild
    assert version.delta.updated_rows == 1
    assert version.n_rows == seed_table.n_rows
    fresh = SkylineAuditEngine(publisher.table, [(0.3, 0.3)]).audit(
        version.release.groups
    )
    for entry, reference in zip(version.report.entries, fresh.entries):
        assert float(np.abs(entry.attack.risks - reference.attack.risks).max()) <= 1e-12
    # The stream keeps working incrementally after the rebuild.
    follow_up = publisher.delete([0, 1, 2])
    assert not follow_up.delta.rebuild


def _assert_audited_under(version, table, skyline, measure):
    fresh = SkylineAuditEngine(table, skyline, measure=measure).audit(version.release.groups)
    for entry, reference in zip(version.report.entries, fresh.entries):
        assert float(np.abs(entry.attack.risks - reference.attack.risks).max()) <= 1e-12


def test_rebuild_keeps_the_configured_measures():
    """An out-of-domain QI value rebuilds codes and priors, not the measures.

    The sensitive domain is unchanged, so the publisher's audit measure and
    the model's own measure are kept as configured (they used to fall back
    to the default bandwidth 0.5, moving published risks by up to 0.23).
    """
    seed_table, (batch, _) = _stream_tables(seed=53)
    audit_measure = sensitive_distance_measure(seed_table, bandwidth=0.9)
    model_measure = sensitive_distance_measure(seed_table, bandwidth=0.9, kernel="gaussian")
    model = BTPrivacy(0.3, 0.25, measure=model_measure)
    publisher = IncrementalPublisher(
        seed_table, model, skyline=SKYLINE, k=4, measure=audit_measure
    )
    publisher.publish()
    rows = batch.rows()[:10]
    rows[0] = dict(rows[0], Age=123.0)  # outside the observed domain
    version = publisher.append(rows)
    assert version.delta.rebuild
    assert model.measure is model_measure
    _assert_audited_under(
        version, publisher.table, SKYLINE,
        sensitive_distance_measure(publisher.table, bandwidth=0.9),
    )


def test_rebuild_carries_smoothing_onto_a_grown_sensitive_domain():
    """A new sensitive value rebuilds each smoothed-JS measure on the new
    domain with its own bandwidth and kernel."""
    schema = Schema(
        [
            Attribute("Age", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("Disease", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE),
        ]
    )
    rng = np.random.default_rng(3)
    table = MicrodataTable.from_columns(
        schema,
        {
            "Age": rng.integers(20, 60, 300).astype(float),
            "Disease": rng.choice(["flu", "cold", "ulcer", "asthma"], 300),
        },
    )
    options = {"bandwidth": 0.9, "kernel": "gaussian"}
    model = BTPrivacy(0.3, 1.0, measure=sensitive_distance_measure(table, **options))
    skyline = [(0.3, 0.5)]
    publisher = IncrementalPublisher(
        table, model, skyline=skyline, k=4,
        measure=sensitive_distance_measure(table, **options),
    )
    publisher.publish()
    version = publisher.append([{"Age": 40.0, "Disease": "measles"}])
    assert version.delta.rebuild
    assert publisher.table.sensitive_domain().size == 5
    assert isinstance(model.measure, SmoothedJSDivergence)
    assert (model.measure.bandwidth, model.measure.kernel) == (0.9, "gaussian")
    assert model.measure.distance_matrix.shape == (5, 5)
    _assert_audited_under(
        version, publisher.table, skyline,
        sensitive_distance_measure(publisher.table, **options),
    )


def test_updates_that_cross_split_boundaries_reroute():
    """Replacing rows with copies of far-away rows moves them across split
    boundaries; the release must stay consistent (no stale membership)."""
    seed_table, _ = _stream_tables(seed=53)
    model = DistinctLDiversity(3)
    publisher = IncrementalPublisher(seed_table, model, k=4)
    v0 = publisher.publish()
    source_group = v0.release.groups[0]
    target_group = v0.release.groups[-1]
    positions = source_group[:3]
    replacements = [
        publisher.table.row(int(donor)) for donor in target_group[:3]
    ]
    version = publisher.update(positions, replacements)
    covered = np.concatenate(version.release.groups)
    assert sorted(covered.tolist()) == list(range(publisher.table.n_rows))
    for group in version.release.groups:
        assert model.is_satisfied(group) and group.size >= 4


def test_lifecycle_validation_errors():
    seed_table, batches = _stream_tables(seed=59, batches=1)
    publisher = IncrementalPublisher(seed_table, DistinctLDiversity(3), k=4)
    with pytest.raises(StreamError):
        publisher.delete([0])  # not published yet
    with pytest.raises(StreamError):
        publisher.update([0], [seed_table.row(0)])
    publisher.publish()
    with pytest.raises(StreamError):
        publisher.delete([])
    with pytest.raises(StreamError):
        publisher.delete([seed_table.n_rows])
    with pytest.raises(StreamError):
        publisher.delete(np.arange(seed_table.n_rows))
    with pytest.raises(StreamError):
        publisher.update([], [])
    with pytest.raises(StreamError):
        publisher.update([0, 0], [seed_table.row(0), seed_table.row(1)])
    with pytest.raises(StreamError):
        publisher.update([0], [seed_table.row(0), seed_table.row(1)])
    with pytest.raises(StreamError):
        IncrementalPublisher(
            seed_table, DistinctLDiversity(3), k=4, compact_drift=0.0
        )
    # NaN fails every ordered comparison: it must not read as "refinement off".
    for refine_factor in (0.5, float("nan")):
        with pytest.raises(StreamError, match="refine_factor"):
            IncrementalPublisher(
                seed_table, DistinctLDiversity(3), k=4, refine_factor=refine_factor
            )


def test_delete_everything_in_steps_raises_before_empty():
    seed_table, _ = _stream_tables(seed=61)
    publisher = IncrementalPublisher(seed_table, DistinctLDiversity(3), k=4)
    publisher.publish()
    with pytest.raises(StreamError):
        publisher.delete(np.arange(publisher.table.n_rows))


def test_failed_batch_poisons_the_publisher():
    """A batch that raises mid-publication (whole table fails the
    requirement) leaves the maintained state between versions: the store
    still serves published versions, but further mutations must refuse
    loudly instead of silently publishing a wrong version."""
    from repro.exceptions import AnonymizationError

    seed_table, batches = _stream_tables(seed=67, batches=1)
    publisher = IncrementalPublisher(seed_table, DistinctLDiversity(3), k=4)
    v0 = publisher.publish()
    with pytest.raises(AnonymizationError):
        # Keep 3 rows: the whole table falls below k=4.
        publisher.delete(np.arange(3, seed_table.n_rows))
    assert publisher.latest is v0  # the store still serves the last version
    for mutate in (
        lambda: publisher.append(batches[0]),
        lambda: publisher.delete([0]),
        lambda: publisher.update([0], [seed_table.row(0)]),
    ):
        with pytest.raises(StreamError, match="inconsistent"):
            mutate()
