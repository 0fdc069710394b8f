"""Quickstart: the pipeline API - anonymize, audit and report in one fluent run.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro import MODELS, Session, expand_grid, generate_adult
from repro.utility import QueryWorkloadGenerator, average_relative_error


def main() -> None:
    # 1. A microdata table: 3 000 census-like records, Occupation is sensitive.
    table = generate_adult(3_000, seed=1)
    print(f"table: {table.n_rows} rows, QI = {', '.join(table.quasi_identifier_names)}, "
          f"sensitive = {table.sensitive_name}")
    print(f"registered privacy models: {', '.join(MODELS.names())}")

    # 2. A session caches expensive preparation (kernel prior estimation, the
    #    dominant cost) so every pipeline and sweep below shares it.  The
    #    estimation threads across all cores by default; every estimation
    #    setting goes through one EstimatorConfig, so
    #    Session(table, config=EstimatorConfig(jobs=N)) (or --jobs N on any
    #    CLI subcommand, or REPRO_JOBS) pins the thread count and jobs=1 is
    #    the serial reference - results are bitwise identical at any setting.
    session = Session(table)

    # 3. Publish under (B,t)-privacy and audit in one fluent pipeline: the
    #    adversary profile is bandwidth b = 0.3, no individual's sensitive
    #    attribute may be disclosed by more than t = 0.2, and the audit
    #    replays the Section V-A background-knowledge attack with b' = 0.3.
    bundle = (
        session.pipeline()
        .model("bt", b=0.3, t=0.2)
        .with_k(4)
        .algorithm("mondrian")
        .audit(b_prime=0.3)
        .run()
    )
    release = bundle.release
    anonymization_seconds = (
        bundle.timings["prepare_seconds"] + bundle.timings["partition_seconds"]
    )
    print(f"\n(B,t)-private release: {release.n_groups} groups, "
          f"avg size {release.average_group_size():.1f}, "
          f"prepared+partitioned in {anonymization_seconds:.2f}s")
    print(f"audit Adv(b'=0.3): {bundle.attack.vulnerable_tuples} vulnerable tuples, "
          f"worst-case knowledge gain {bundle.attack.worst_case_risk:.3f} (budget 0.2)")
    print(f"utility: DM = {bundle.utility['discernibility_metric']:.0f}, "
          f"GCP = {bundle.utility['global_certainty_penalty']:.0f}")

    # 3b. The publisher does not know the adversary's knowledge level, so
    #     audit the same release against a whole skyline of adversaries in one
    #     batched pass (Definition 2); the session reuses every cached prior
    #     and estimates the missing bandwidths together.
    skyline_report = session.audit_skyline(
        release.groups, [(0.1, 0.25), (0.3, 0.2), (0.5, 0.2)]
    )
    print(f"\nskyline audit ({'satisfied' if skyline_report.satisfied else 'breached'}):")
    for entry in skyline_report.entries:
        print(f"  Adv{entry.adversary.describe()}: "
              f"worst-case gain {entry.attack.worst_case_risk:.3f} "
              f"(margin {entry.margin:+.3f})")

    # 4. Compare against the classic baselines with a parameter sweep.  The
    #    grid spans heterogeneous models - each picks the parameters it
    #    understands - and the session cache means the kernel priors are
    #    estimated exactly once across everything in this script.
    outcome = session.sweep(
        expand_grid(
            model=["bt", "distinct-l", "probabilistic-l", "t-closeness"],
            b=0.3, t=0.2, l=4, k=4,
            audit={"b_prime": 0.3, "threshold": 0.2},
        )
    )
    print("\nmodel comparison sweep:")
    print(outcome.render())
    print(f"kernel prior estimations: {session.stats.prior_estimations} "
          f"(cache hits: {session.stats.prior_cache_hits})")

    # 5. The release still answers aggregate queries well.
    queries = QueryWorkloadGenerator(table, query_dimension=3, selectivity=0.1, seed=7).generate(200)
    error = average_relative_error(release, queries)
    print(f"\naggregate query error of the (B,t) release: {error:.1f}%")

    # 6. Peek at the published (generalized) form of the first few tuples.
    print("\nfirst three published rows:")
    for row in release.generalized_rows()[:3]:
        print("  ", row)

    # 7. Changing data?  session.stream(...) turns the same configuration
    #    into an incremental publisher covering the full stream lifecycle:
    #    appended batches, GDPR-style deletions and in-place corrections are
    #    all folded in with exact count-tensor deltas, dirty-leaf re-splits
    #    and delta skyline audits instead of re-running the whole pipeline
    #    (see examples/streaming_publisher.py, which also persists the
    #    stream to a disk-backed ReleaseStore and resumes it).
    publisher = session.stream("bt", params={"b": 0.3, "t": 0.2}, k=4)
    version = publisher.append(table.sample(200, rng=np.random.default_rng(2)).rows())
    print(f"\nstreaming: v{version.version} folded {version.delta.appended_rows} "
          f"appended rows in {version.delta.timings['total_seconds']:.2f}s, "
          f"reusing {version.delta.reused_groups} of {publisher.store[0].n_groups} "
          f"seed groups verbatim")
    version = publisher.delete(np.arange(0, 40))       # retract 40 rows
    print(f"streaming: v{version.version} retracted {version.delta.deleted_rows} "
          f"rows, {version.delta.rebuilt_regions} region(s) merged/rebuilt")
    donors = publisher.table.sample(10, rng=np.random.default_rng(3)).rows()
    version = publisher.update(np.arange(10), donors)  # correct 10 rows in place
    print(f"streaming: v{version.version} corrected {version.delta.updated_rows} "
          f"rows, audit recomputed {version.delta.audit_recomputed_groups or 'no'} "
          f"groups")

    # 7b. Too big for RAM?  The same pipeline runs out-of-core: export the
    #     table once, then open it as a chunked TableSource - a .csv streams
    #     in two passes, a .npz is memory-mapped so the code columns are
    #     views into the file.  A Session over a source holds only the
    #     code columns (never the decoded rows), a direct
    #     `kernel_prior(source, b)` fits chunk by chunk through exact append
    #     deltas (bitwise the resident fit) and `spill=True` keeps Mondrian's
    #     value matrix in a
    #     temp-file memmap.  The CLI spelling is
    #     `repro anonymize --input census.csv --chunk-rows 50000 ...`
    #     (every table-consuming subcommand takes --input/--chunk-rows);
    #     benchmarks/bench_scale.py publishes and audits one million rows
    #     this way under 8 GB peak RSS.
    import tempfile as _tempfile

    from repro.data.io import open_table, write_csv

    csv_path = Path(_tempfile.mkdtemp(prefix="repro-quickstart-")) / "census.csv"
    write_csv(table, csv_path)
    source = open_table(csv_path, chunk_rows=1_000)
    chunked = Session(source)
    chunked_release = chunked.anonymize("bt", params={"b": 0.3, "t": 0.2},
                                        k=4, spill=True).release
    assert chunked_release.n_groups == release.n_groups
    print(f"\nout-of-core: {csv_path.name} streamed in 1k-row chunks -> "
          f"{chunked_release.n_groups} groups, identical to the in-RAM release")

    # 8. Serving many tenants?  `repro serve --data-dir DIR` hosts any number
    #    of named streams as a long-running HTTP daemon: writes to a stream
    #    are coalesced into single published versions, reads (history,
    #    lineage, audit reports) are answered lock-free from immutable
    #    versions, and a restart resumes every stream from its disk shard.
    #    The same app runs in-process:
    import asyncio
    import json as _json
    import tempfile
    import threading
    import urllib.request

    from repro.serve import ServeApp

    app = ServeApp(tempfile.mkdtemp(prefix="repro-quickstart-"), port=0)
    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    asyncio.run_coroutine_threadsafe(app.start(), loop).result(30)
    seed_rows = [
        {name: (value.item() if hasattr(value, "item") else value)
         for name, value in table.row(index).items()}
        for index in range(400)
    ]
    request = urllib.request.Request(
        f"http://127.0.0.1:{app.port}/streams", method="POST",
        data=_json.dumps({"name": "census", "rows": seed_rows,
                          "config": {"model": "bt", "b": 0.3, "t": 0.25}}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        stream = _json.loads(response.read())["stream"]
    print(f"\nserving: POST /streams published version 0 of {stream['name']!r} "
          f"({stream['groups']} groups); see examples/serve_client.py for the "
          f"full coalesce/read/restart lifecycle")

    # 9. Observability: the daemon is born instrumented.  `repro serve
    #    --log-format json` emits one JSON log record per line (each request
    #    carries a trace id, echoed back as X-Repro-Trace-Id), a Prometheus
    #    scrape target lives at /metrics?format=prometheus, and every
    #    freshly published version exposes its span-derived stage breakdown
    #    (prior/partition/audit) under GET /streams/<name>/versions/<v>.
    with urllib.request.urlopen(
        f"http://127.0.0.1:{app.port}/metrics?format=prometheus", timeout=120
    ) as response:
        families = sum(
            line.startswith(b"# TYPE") for line in response.read().splitlines()
        )
    print(f"observability: /metrics?format=prometheus exposes {families} "
          f"metric families; repro anonymize/audit/stream --trace-out PATH "
          f"dumps the same span tree for one-shot runs")
    asyncio.run_coroutine_threadsafe(app.stop(), loop).result(60)
    loop.call_soon_threadsafe(loop.stop)


if __name__ == "__main__":
    main()
