"""Seeded randomized differential harness for the stream publisher.

For a few fixed seeds a random script of appends, deletes, updates and
coalesced ticks of 2-4 operations drives three publishers over the same
operations:

* ``main`` - disk-backed, every tick published with ``publish_coalesced``
  (single operations through ``append``/``delete``/``update``), serial
  (``jobs=1``);
* ``twin`` - in memory, every operation published as its own version, on
  three pool threads;
* ``resumed`` - disk-backed like ``main``, closed partway through and
  reconstructed with :meth:`IncrementalPublisher.resume`.

A small ``compact_drift`` makes compactions fire and one out-of-domain
append forces a full rebuild.  One case audits under smoothed JS with real
smoothing (bandwidth 0.9), which a coalesced tick's one audit relies on to
give a row the same bits in any tile.  The contracts:

* every version of ``main`` is a valid release (full row coverage, every
  group >= k and satisfying the model) whose maintained risks are within
  ``1e-12`` of a fresh :class:`SkylineAuditEngine` audit;
* every tick of ``main`` is bitwise equal (groups and risks) to ``twin``
  after the same operations - coalescing only drops intermediate versions,
  and the thread count changes nothing;
* ``resumed`` continues exactly like ``main`` (same groups, risks within
  ``1e-12``: resume refits the priors from scratch).
"""

import numpy as np
import pytest

from repro.audit.engine import SkylineAuditEngine
from repro.data.adult import adult_schema, generate_adult
from repro.knowledge.backend import EstimatorConfig
from repro.privacy.measures import sensitive_distance_measure
from repro.privacy.models import BTPrivacy, DistinctLDiversity
from repro.stream import IncrementalPublisher

SEED_ROWS = 500
POOL_ROWS = 1500
K = 4
SKYLINE = [(0.1, 0.3), (0.3, 0.25)]
STEPS = 10
OUT_OF_DOMAIN_STEP = 3
RESUME_STEP = 5
# main and twin run at different thread counts, so the bitwise twin
# comparison also enforces identity across jobs.
MAIN_JOBS = 1
TWIN_JOBS = 3

# (seed, model factory, split strategy, audit smoothing bandwidth or None
# for the default measure)
CASES = [
    (5, lambda: BTPrivacy(0.3, 0.25), "widest", None),
    (13, lambda: DistinctLDiversity(3), "round_robin", None),
    (31, lambda: BTPrivacy(0.3, 0.25), "round_robin", None),
    (17, lambda: BTPrivacy(0.3, 0.25), "widest", 0.9),
]


def _script(seed, pool):
    """The random operation ticks, drawn against the evolving table size."""
    rng = np.random.default_rng(seed)
    cursor = SEED_ROWS
    n_rows = SEED_ROWS
    ticks = []
    for step in range(STEPS):
        size = 1 if rng.random() < 0.4 else int(rng.integers(2, 5))
        tick = []
        for position in range(size):
            kind = ("append", "delete", "update")[int(rng.integers(3))]
            if step == OUT_OF_DOMAIN_STEP and position == 0:
                kind = "out-of-domain"
            if kind in ("append", "out-of-domain"):
                count = int(rng.integers(10, 50))
                batch = pool.select(np.arange(cursor, cursor + count))
                cursor += count
                if kind == "out-of-domain":
                    rows = batch.rows()
                    rows[0] = dict(rows[0], Age=123.0)  # outside every observed age
                    batch = rows
                tick.append(("append", batch))
                n_rows += count
            elif kind == "delete":
                count = int(rng.integers(5, 30))
                tick.append(("delete", rng.choice(n_rows, size=count, replace=False)))
                n_rows -= count
            else:
                count = int(rng.integers(5, 30))
                positions = rng.choice(n_rows, size=count, replace=False)
                donors = rng.integers(0, POOL_ROWS, size=count)
                tick.append(("update", (positions, [pool.row(int(d)) for d in donors])))
        ticks.append(tick)
    return ticks


def _publish(publisher, tick):
    if len(tick) > 1:
        return publisher.publish_coalesced(tick)
    kind, payload = tick[0]
    if kind == "append":
        return publisher.append(payload)
    if kind == "delete":
        return publisher.delete(payload)
    return publisher.update(*payload)


def _risks(version):
    return [entry.attack.risks for entry in version.report.entries]


def _measure(table, smoothing):
    if smoothing is None:
        return None
    return sensitive_distance_measure(table, bandwidth=smoothing)


def _assert_valid_and_exact(version, model, smoothing=None):
    release = version.release
    covered = np.concatenate(release.groups)
    assert np.array_equal(np.sort(covered), np.arange(release.table.n_rows))
    for group in release.groups:
        assert group.size >= K
        assert model.is_satisfied(group)
    fresh = SkylineAuditEngine(
        release.table, SKYLINE, measure=_measure(release.table, smoothing)
    ).audit(release.groups)
    for risks, reference in zip(_risks(version), fresh.entries):
        assert float(np.abs(risks - reference.attack.risks).max()) <= 1e-12


def _assert_same_groups(a, b):
    assert len(a.release.groups) == len(b.release.groups)
    assert all(np.array_equal(x, y) for x, y in zip(a.release.groups, b.release.groups))


@pytest.mark.parametrize("seed, model_factory, split_strategy, smoothing", CASES)
def test_random_lifecycle_differential(
    tmp_path, seed, model_factory, split_strategy, smoothing
):
    pool = generate_adult(POOL_ROWS + STEPS * 4 * 50, seed=seed)
    seed_table = pool.select(np.arange(SEED_ROWS))
    options = dict(
        skyline=SKYLINE,
        k=K,
        split_strategy=split_strategy,
        compact_drift=0.1,
        measure=_measure(seed_table, smoothing),
    )
    model = model_factory()
    main = IncrementalPublisher(
        seed_table,
        model,
        store_path=tmp_path / "main",
        config=EstimatorConfig(jobs=MAIN_JOBS),
        **options,
    )
    twin = IncrementalPublisher(
        seed_table, model_factory(), config=EstimatorConfig(jobs=TWIN_JOBS), **options
    )
    resumed = IncrementalPublisher(
        seed_table, model_factory(), store_path=tmp_path / "resumed", **options
    )
    for publisher in (main, twin, resumed):
        publisher.publish()

    compacted = rebuilt = 0
    for step, tick in enumerate(_script(seed, pool)):
        version = _publish(main, tick)
        assert version.delta.coalesced_operations == len(tick)
        _assert_valid_and_exact(version, model, smoothing)
        compacted += version.delta.compacted
        rebuilt += version.delta.rebuild

        for operation in tick:
            _publish(twin, [operation])
        sequential = twin.latest
        _assert_same_groups(version, sequential)
        assert all(
            np.array_equal(a, b) for a, b in zip(_risks(version), _risks(sequential))
        )

        if step == RESUME_STEP:
            resumed.close()
            resumed = IncrementalPublisher.resume(
                tmp_path / "resumed",
                schema=adult_schema(),
                model=model_factory(),
                measure=_measure(resumed.table, smoothing),
            )
        continued = _publish(resumed, tick)
        assert continued.version == version.version
        _assert_same_groups(version, continued)
        for a, b in zip(_risks(version), _risks(continued)):
            assert float(np.abs(a - b).max()) <= 1e-12

    # The script really exercised the rebuild and the compaction paths.
    assert rebuilt >= 1
    assert compacted >= 1
    for publisher in (main, resumed):
        publisher.close()
