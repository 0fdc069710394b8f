"""Workload ``stream-lifecycle``: a disk-backed incremental publisher in a closed loop.

One caller drives an ``IncrementalPublisher`` over a 10k-row seed with the
``publish-audit`` model and skyline.  Each round publishes one append, one
delete and one update as separate versions (primary), then one
``publish_coalesced`` tick of the same three kinds (secondary) - the call the
serving daemon makes per tick.  Batches come from a pool of rows whose values
all lie in the seed's domains, so no batch forces a full rebuild.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from harness import Measurement, instrument, peak_rss_mb, tail
from checks import (
    check_covers,
    check_min_group_size,
    check_risks_match,
    check_same_version,
    check_satisfied,
    groups_digest,
)
from publish_audit import ENFORCED, K, SKYLINE, enforced_entry

SEED_ROWS = 10_000
POOL_ROWS = 4_000
APPEND_ROWS = 100
DELETE_ROWS = 100
UPDATE_ROWS = 50
SETUPS = 5
TIMING_KEYS = ("prior", "audit", "table", "route", "recheck", "repartition")


def in_domain_rows(seed_table, candidates) -> np.ndarray:
    """Positions of ``candidates`` rows whose every value occurs in ``seed_table``'s rows.

    Observed values, not the table's domains: a table selected from a larger
    one keeps the larger table's domains, while a stream created from rows
    (as the daemon does) knows only the values its rows hold.
    """
    keep = np.ones(candidates.n_rows, dtype=bool)
    for name in seed_table.schema.names:
        keep &= np.isin(candidates.column(name), np.unique(seed_table.column(name)))
    return np.flatnonzero(keep)


def prepare(seed: int, directory: Path) -> None:
    from repro.data.adult import generate_adult
    from repro.data.source import write_npz

    table = generate_adult(SEED_ROWS + POOL_ROWS, seed=seed)
    seed_table = table.select(np.arange(SEED_ROWS))
    candidates = table.select(np.arange(SEED_ROWS, table.n_rows))
    write_npz(directory / "seed.npz", seed_table)
    write_npz(directory / "pool.npz", candidates.select(in_domain_rows(seed_table, candidates)))


class Batches:
    """The seeded mutation sequence: pool rows in turn, random positions."""

    def __init__(self, pool, n_rows: int, seed: int):
        self.pool = pool
        self.n_rows = n_rows
        self.rng = np.random.default_rng(seed)
        self._cursor = 0

    def rows(self, count: int):
        picked = (self._cursor + np.arange(count)) % self.pool.n_rows
        self._cursor += count
        return self.pool.select(picked)

    def append(self):
        self.n_rows += APPEND_ROWS
        return ("append", self.rows(APPEND_ROWS))

    def delete(self):
        positions = self.rng.choice(self.n_rows, DELETE_ROWS, replace=False)
        self.n_rows -= DELETE_ROWS
        return ("delete", positions)

    def update(self):
        positions = self.rng.choice(self.n_rows, UPDATE_ROWS, replace=False)
        return ("update", (positions, self.rows(UPDATE_ROWS)))


def measure(directory: Path, seed: int, seconds: float, trace: bool) -> dict:
    from repro.anonymize.mondrian import MondrianAnonymizer
    from repro.api import Session
    from repro.audit.engine import SkylineAuditEngine
    from repro.data.io import open_table
    from repro.data.source import as_table
    from repro.knowledge.prior import BatchedKernelPriorEstimator
    from repro.stream import IncrementalPublisher
    from repro.stream.store import ReleaseStore

    run = Measurement(f"stream-lifecycle:{seed}", trace=trace)
    recorder = run.recorder
    for method in ("append_rows", "remove_rows", "update_rows", "prior_for_table"):
        instrument(recorder, BatchedKernelPriorEstimator, method, f"knowledge.{method}")
    instrument(recorder, SkylineAuditEngine, "audit_incremental", "audit.incremental")
    instrument(recorder, MondrianAnonymizer, "partition_tree", "anonymize.partition_tree")
    instrument(recorder, ReleaseStore, "add", "store.add")
    seed_table = as_table(open_table(directory / "seed.npz"))
    pool = as_table(open_table(directory / "pool.npz"))
    params = {"b": ENFORCED[0], "t": ENFORCED[1]}

    def setup(store_dir: Path):
        start = time.perf_counter()
        session = Session(seed_table)
        publisher = session.stream("bt", params=params, k=K, skyline=SKYLINE,
                                   store_dir=str(store_dir))
        run.setup.append(time.perf_counter() - start)
        return session, publisher

    for index in range(SETUPS - 1):
        setup(directory / f"store-{index}")[1].close()
    store_dir = directory / f"store-{SETUPS - 1}"
    session, publisher = setup(store_dir)

    batches = Batches(pool, seed_table.n_rows, seed)
    versions = []  # (kind, delta, groups, wall seconds) per published version
    deadline = time.perf_counter() + seconds
    index = 0
    failed = False
    while not failed and (index == 0 or time.perf_counter() < deadline):
        gc.collect()  # each round starts from the same heap, not the last round's garbage
        traced = run.traced(index)
        index += 1
        recorder.enabled = traced
        for kind, payload in [batches.append(), batches.delete(), batches.update(),
                              ("tick", [batches.append(), batches.delete(), batches.update()])]:
            start = time.perf_counter()
            try:
                with recorder.span(f"stream.{kind}"):
                    version = publish(publisher, kind, payload)
            except Exception:
                run.outcomes.record(ok=False)
                traceback.print_exc(file=sys.stderr)
                failed = True  # a failed publication poisons the publisher
                break
            wall = time.perf_counter() - start
            run.outcomes.record(ok=True)
            if kind == "tick":
                run.secondary.append(wall)
            else:
                run.add_primary(wall, traced=traced)
            # Only what the metrics need is kept, so held versions do not
            # inflate the peak RSS.
            versions.append((kind, version.delta, version.n_groups, wall))
            groups = version.release.groups
            run.check("groups >= k", check_min_group_size, groups, K)
            run.check("groups cover the table", check_covers, groups, version.n_rows)
            run.check("enforced point satisfied", lambda: check_satisfied(
                version.version, enforced_entry(version.report.entries).satisfied, ENFORCED))
        recorder.enabled = False

    final = publisher.latest
    fresh = SkylineAuditEngine(final.release.table, SKYLINE, config=publisher.config)
    fresh_report = fresh.audit(final.release.groups)
    run.check("maintained risks == fresh audit", check_risks_match,
              [e.attack.risks for e in final.report.entries],
              [e.attack.risks for e in fresh_report.entries])
    publisher.close()
    resumed = IncrementalPublisher.resume(
        store_dir, schema=seed_table.schema, model=session.build_model("bt", **params)
    )
    try:
        latest = resumed.latest
        run.check("resume == latest version", check_same_version,
                  (final.version, groups_digest(final.release.groups)),
                  (latest.version, groups_digest(latest.release.groups)))
        run.check("resumed risks == maintained", check_risks_match,
                  [e.attack.risks for e in final.report.entries],
                  [e.attack.risks for e in latest.report.entries])
    finally:
        resumed.close()

    tail_s, tail_pct = tail(run.primary)
    # The stage timings come from the program's own StreamDelta, traced or not.
    per_layer = stream_layers(versions)
    per_layer["stream.version_tail_s"] = tail_s
    per_layer["stream.version_tail_pct"] = tail_pct
    return run.result(peak_rss=peak_rss_mb(), per_layer=per_layer)


def publish(publisher, kind: str, payload):
    """One call into the publisher's public mutation API."""
    if kind == "append":
        return publisher.append(payload)
    if kind == "delete":
        return publisher.delete(payload)
    if kind == "update":
        return publisher.update(*payload)
    return publisher.publish_coalesced(payload)


def stream_layers(versions) -> dict[str, float]:
    """Per-version means of the ``StreamDelta`` stage timings, and the reuse ratios.

    ``versions`` holds ``(kind, delta, n_groups, wall seconds)`` per version.
    """
    if not versions:
        return {}
    count = len(versions)
    deltas = [delta for _, delta, _, _ in versions]
    layers = {
        f"stream.{key}_s": sum(d.timings.get(f"{key}_seconds", 0.0) for d in deltas) / count
        for key in TIMING_KEYS
    }
    layers["stream.compact_partition_s"] = sum(
        d.timings.get("partition_seconds", 0.0) for d in deltas if d.compacted
    ) / count
    layers["store.write_s"] = sum(
        wall - delta.timings["total_seconds"] for _, delta, _, wall in versions
    ) / count
    groups = sum(n_groups for _, _, n_groups, _ in versions)
    layers["stream.reused_group_frac"] = sum(d.reused_groups for d in deltas) / groups
    layers["stream.audit_recomputed_frac"] = sum(
        sum(d.audit_recomputed_groups) for d in deltas
    ) / (groups * len(SKYLINE))
    layers["stream.compaction_frac"] = sum(d.compacted for d in deltas) / count
    ticks = [delta for kind, delta, _, _ in versions if kind == "tick"]
    layers["stream.tick_operations"] = (
        sum(d.coalesced_operations for d in ticks) / len(ticks) if ticks else 0.0
    )
    return layers
