"""A coalesced tick advances through its operations and audits once.

``publish_coalesced`` folds every operation into the table, the priors and
the partition, then audits the result once against the previously published
version through the operations' composed row map.  The contracts:

* a tick of several operations runs one incremental audit (one ``audit``
  span), never one per operation;
* deterministic ticks that stress the composed map - rows appended and
  deleted in one tick, an appended row corrected, an original row corrected
  and then deleted, an out-of-domain append first, a compaction mid-tick -
  publish groups and risks bitwise equal to publishing the operations one
  version at a time, with the default measure and with real smoothing;
* a tick's ``reused_groups`` and ``audit_recomputed_groups`` are relative
  to the previously published version.
"""

import numpy as np
import pytest

from repro.audit.engine import SkylineAuditEngine
from repro.data.adult import generate_adult
from repro.privacy.measures import sensitive_distance_measure
from repro.privacy.models import BTPrivacy
from repro.stream import IncrementalPublisher

SEED_ROWS = 600
POOL = generate_adult(SEED_ROWS + 400, seed=41)
SEED = POOL.select(np.arange(SEED_ROWS))
SKYLINE = [(0.1, 0.3), (0.3, 0.25)]


def _rows(start, count):
    return POOL.select(np.arange(SEED_ROWS + start, SEED_ROWS + start + count))


def _publisher(smoothing=None, **options):
    measure = None if smoothing is None else sensitive_distance_measure(SEED, bandwidth=smoothing)
    publisher = IncrementalPublisher(
        SEED, BTPrivacy(0.3, 0.25), skyline=SKYLINE, k=4, measure=measure, **options
    )
    publisher.publish()
    return publisher


def _risks(version):
    return [entry.attack.risks for entry in version.report.entries]


def _composed(previous_of, kind, payload, n_rows):
    """The tick's row map after one more operation on an ``n_rows`` table."""
    if kind == "append":
        step = np.concatenate([np.arange(n_rows), np.full(payload.n_rows, -1)])
    elif kind == "delete":
        keep = np.ones(n_rows, dtype=bool)
        keep[payload] = False
        step = np.flatnonzero(keep)
    else:
        step = np.arange(n_rows)
    if previous_of is None:
        return step
    return np.where(step >= 0, previous_of[np.maximum(step, 0)], -1)


def test_a_tick_audits_once(monkeypatch):
    publisher = _publisher()
    publisher.tracer.take_root()
    calls = []
    for name in ("audit", "audit_incremental"):
        original = getattr(SkylineAuditEngine, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SkylineAuditEngine, name, counting)
    version = publisher.publish_coalesced(
        [
            ("append", _rows(0, 30)),
            ("delete", np.arange(10, 40)),
            ("update", ([3, 5], [POOL.row(SEED_ROWS + 50), POOL.row(SEED_ROWS + 51)])),
        ]
    )
    assert calls == ["audit_incremental"]
    assert version.delta.coalesced_operations == 3
    root = publisher.tracer.take_root()
    assert root.name == "publish.coalesced"
    assert [span.name for span in root.walk()].count("audit") == 1
    assert [child.name for child in root.children] == [
        "publish.append", "publish.delete", "publish.update", "audit",
    ]


def _out_of_domain():
    rows = _rows(100, 20).rows()
    rows[0] = dict(rows[0], Age=123.0)  # outside every observed age
    return rows


TICKS = {
    # Appended rows deleted again, with two original rows.
    "append-then-delete": lambda n: [
        ("append", _rows(0, 30)),
        ("delete", np.concatenate([np.arange(n, n + 30), [4, 77]])),
    ],
    # An appended row corrected within the tick.
    "append-then-correct": lambda n: [
        ("append", _rows(30, 20)),
        ("update", ([n + 3, n + 11], [POOL.row(SEED_ROWS + 60), POOL.row(2)])),
    ],
    # An original row corrected and then deleted.
    "correct-then-delete": lambda n: [
        ("update", ([5, 9, 200], [POOL.row(SEED_ROWS + 61), POOL.row(7), POOL.row(8)])),
        ("delete", [5, 40, 41]),
        ("append", _rows(50, 15)),
    ],
}


@pytest.mark.parametrize("smoothing", [None, 0.9], ids=["default", "smoothing-0.9"])
@pytest.mark.parametrize("name", [*TICKS, "out-of-domain-first", "compaction-mid-tick"])
def test_tick_matches_one_version_per_operation(name, smoothing):
    options = {"compact_drift": 0.1} if name == "compaction-mid-tick" else {}
    main = _publisher(smoothing, **options)
    twin = _publisher(smoothing, **options)
    # One ordinary version first, so the tick starts from a maintained state.
    for publisher in (main, twin):
        publisher.append(_rows(200, 25))
    n_rows = main.table.n_rows
    if name == "out-of-domain-first":
        tick = [
            ("append", _out_of_domain()),
            ("delete", [1, 2, 3]),
            ("update", ([10], [POOL.row(SEED_ROWS + 70)])),
        ]
    elif name == "compaction-mid-tick":
        # The warm-up append drifts at most 25 rows and the deletion 25
        # more, below 10% of the 600-row table; 40 corrected rows reach it,
        # so the second operation compacts.
        tick = [
            ("delete", np.arange(0, 50, 2)),
            ("update", (np.arange(100, 140), [POOL.row(SEED_ROWS + 80 + i) for i in range(40)])),
            ("append", _rows(300, 20)),
        ]
    else:
        tick = TICKS[name](n_rows)

    version = main.publish_coalesced(tick)
    sequential = []
    for kind, payload in tick:
        if kind == "update":
            sequential.append(twin.update(*payload))
        else:
            sequential.append(getattr(twin, kind)(payload))
    expected = twin.latest

    assert len(version.release.groups) == len(expected.release.groups)
    for a, b in zip(version.release.groups, expected.release.groups):
        assert np.array_equal(a, b)
    for a, b in zip(_risks(version), _risks(expected)):
        assert a.tobytes() == b.tobytes()
    if name == "out-of-domain-first":
        assert version.delta.rebuild and sequential[0].delta.rebuild
    if name == "compaction-mid-tick":
        assert [v.delta.compacted for v in sequential] == [False, True, False]
        assert version.delta.compacted
    measure = None if smoothing is None else sensitive_distance_measure(
        main.table, bandwidth=smoothing
    )
    fresh = SkylineAuditEngine(main.table, SKYLINE, measure=measure).audit(
        version.release.groups
    )
    for risks, reference in zip(_risks(version), fresh.entries):
        assert float(np.abs(risks - reference.attack.risks).max()) <= 1e-12


def test_tick_reuse_counts_against_the_published_version():
    """Reuse is counted against the version readers saw before the tick.

    A group counts as reused only if it is a group of the previously
    published release through the tick's composed row map; a group that is
    not must have been recomputed by the audit.
    """
    publisher = _publisher()
    rng = np.random.default_rng(5)
    cursor = 0
    for _ in range(3):
        previous = publisher.latest
        n_rows = publisher.table.n_rows
        tick = [("append", _rows(cursor, 40))]
        n_rows_after = n_rows + 40
        tick.append(("delete", rng.choice(n_rows_after, 40, replace=False)))
        donors = rng.integers(0, POOL.n_rows, 20)
        tick.append(
            ("update", (rng.choice(n_rows, 20, replace=False), [POOL.row(int(d)) for d in donors]))
        )
        cursor += 40
        previous_of, size = None, n_rows
        for kind, payload in tick:
            rows = payload[0] if kind == "update" else payload
            previous_of = _composed(previous_of, kind, rows, size)
            size = previous_of.size
        version = publisher.publish_coalesced(tick)

        previous_keys = {group.tobytes() for group in previous.release.groups}
        carried = sum(
            1
            for group in version.release.groups
            if (previous_of[group] >= 0).all() and previous_of[group].tobytes() in previous_keys
        )
        assert 0 < version.delta.reused_groups <= carried
        for recomputed in version.delta.audit_recomputed_groups:
            assert recomputed >= version.release.n_groups - carried
