"""Workload ``publish-audit``: one batch publication and its skyline audit.

A memory-mapped npz of Adult-like rows is published under ``bt(b=0.3,
t=0.2)`` with k=4, then the release is audited against the four-adversary
skyline.  Every round starts from a fresh ``Session``, so each publish pays
its own prior fit, as a batch job would; the audit then reuses the
publication's b=0.3 prior and fits the other three bandwidths.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from pathlib import Path

from harness import OUT_DIR, Measurement, instrument, median, peak_rss_mb, span_seconds
from checks import (
    check_covers,
    check_min_group_size,
    check_no_vulnerable,
    check_same_digest,
    groups_digest,
)

ROWS = 50_000
K = 4
ENFORCED = (0.3, 0.2)
SKYLINE = ((0.1, 0.2), (0.2, 0.2), (0.3, 0.2), (0.5, 0.2))
WARMUPS = 2  # untimed set-ups: the first call pays one-off imports and caches


def prepare(seed: int, directory: Path) -> None:
    from repro.data.adult import generate_adult
    from repro.data.source import write_npz

    write_npz(directory / "table.npz", generate_adult(ROWS, seed=seed))


def measure(directory: Path, seed: int, seconds: float, trace: bool) -> dict:
    from repro.api import Session
    from repro.audit.engine import SkylineAuditEngine
    from repro.data.adult import adult_schema
    from repro.data.io import open_table

    run = Measurement(f"publish-audit:{seed}", trace=trace)
    recorder = run.recorder
    instrument(recorder, SkylineAuditEngine, "prepare", "knowledge.audit_prior")
    instrument(recorder, SkylineAuditEngine, "audit", "audit.posterior")
    path = directory / "table.npz"
    schema = adult_schema()

    def setup():
        with recorder.span("data.open"):
            source = open_table(path, schema)
        with recorder.span("api.session"):
            return Session(source)

    for _ in range(WARMUPS):
        setup()

    layers: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    digests: list[str] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        gc.collect()  # each round starts from the same heap, not the last round's garbage
        traced = run.traced(index)
        index += 1
        recorder.enabled = traced
        first_span = len(recorder.spans)
        # One set-up sample per round, spread over the run: back-to-back
        # set-ups of a few milliseconds all land on one core and one host
        # state, which made whole runs read 30 % apart.
        start = time.perf_counter()
        session = setup()
        run.setup.append(time.perf_counter() - start)
        try:
            start = time.perf_counter()
            with recorder.span("knowledge.publish_prior"):
                session.priors(ENFORCED[0])
            with recorder.span("anonymize.partition"):
                result = session.anonymize(
                    "bt", params={"b": ENFORCED[0], "t": ENFORCED[1]}, k=K
                )
            publish = time.perf_counter() - start
            run.outcomes.record(ok=True)
            groups = result.release.groups
            start = time.perf_counter()
            with recorder.span("api.audit_skyline"):
                report = session.audit_skyline(groups, SKYLINE)
            audit = time.perf_counter() - start
            run.outcomes.record(ok=True)
        except Exception:
            recorder.enabled = False
            run.outcomes.record(ok=False)
            traceback.print_exc(file=sys.stderr)
            continue
        recorder.enabled = False
        run.add_primary(publish, traced=traced)
        run.secondary.append(audit)

        run.check("groups >= k", check_min_group_size, groups, K)
        run.check("groups cover the table", check_covers, groups, session.table.n_rows)
        run.check("enforced point: 0 vulnerable", lambda: check_no_vulnerable(
            enforced_entry(report.entries).attack.vulnerable_tuples, ENFORCED))
        digests.append(groups_digest(groups))
        counts = {
            "anonymize.groups": len(groups),
            "audit.vulnerable_tuples": sum(e.attack.vulnerable_tuples for e in report.entries),
            "api.prior_estimations": session.stats.prior_estimations,
            "api.prior_cache_hits": session.stats.prior_cache_hits,
        }
        if traced:
            spans = recorder.spans[first_span:]
            for name in ("data.open", "knowledge.publish_prior", "anonymize.partition",
                         "knowledge.audit_prior", "audit.posterior"):
                layers.setdefault(f"{name}_s", []).append(span_seconds(spans, name))
        del session, result, groups, report

    # The partition must not depend on the run: compare with an earlier run
    # of the same seed in this checkout, when there is one.
    record = OUT_DIR / "digests" / f"publish-audit-{seed}-{ROWS}.txt"
    if digests and record.exists():
        digests.append(record.read_text().strip())
    elif digests:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digests[0] + "\n")
    run.check("partition digest stable", check_same_digest, digests)

    per_layer = {name: median(values) for name, values in layers.items()}
    per_layer.update(counts)
    return run.result(peak_rss=peak_rss_mb(), per_layer=per_layer)


def enforced_entry(entries):
    """The audit entry of the enforced (b, t) point."""
    (entry,) = [e for e in entries if (e.adversary.scalar_b, e.adversary.t) == ENFORCED]
    return entry
