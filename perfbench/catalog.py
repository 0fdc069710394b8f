"""Every workload and metric of the benchmark, with what each per-layer metric should move.

``BENCHMARK.json`` lists the same names (a self-test keeps the two in step).
Every run reports every metric, and each end-to-end metric is compared on
each workload, so end-to-end metrics are defined for all three workloads
through the roles below, and a per-layer metric a workload does not exercise
reads 0 there.
"""

from __future__ import annotations

WORKLOADS = {
    "publish-audit": (
        "one 50k-row batch publish then a 4-adversary skyline audit: data, knowledge, "
        "full Mondrian and the posterior pass do the work, stream and serve none"
    ),
    "stream-lifecycle": (
        "single-mutation versions and 3-batch coalesced ticks on a disk-backed 10k-row "
        "stream: incremental maintenance, deltas and store writes, little full Mondrian"
    ),
    "serve-mixed": (
        "repro serve at defaults, one writer and one reader on keep-alive connections "
        "over two 5k-row streams: publication and version-cache reads contend"
    ),
}

# What "primary_p50_s" and "secondary_s" measure on each workload.  The
# serve-mixed client read median moves by a quarter between sets of runs of
# the same code on a shared 2-core host (reads wait for the interpreter lock
# a publication holds), so it is a per-layer metric and the write tail is
# the bounded one.
ROLES = {
    "publish-audit": ("median publish (Session.priors + Session.anonymize)",
                      "median skyline audit"),
    "stream-lifecycle": ("median single-mutation version (append/delete/update)",
                         "median coalesced tick"),
    "serve-mixed": ("median client write (POST append/delete/update)",
                    "client write p90"),
}

# name -> (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median set-up before the first timed operation, set up several times per run"),
    "primary_p50_s": ("s", "lower", 0.25, "median latency of the workload's primary operation"),
    "secondary_s": ("s", "lower", 0.25, "the workload's secondary latency (see ROLES)"),
    "peak_rss_mb": ("MB", "lower", 0.25, "lifetime peak RSS of the measured program process"),
    "ok_frac": ("frac", "higher", 0.01, "operations that neither raised nor got a non-2xx reply"),
}

# name -> (unit, better, workload, end-to-end metrics it should move)
PER_LAYER = {
    "data.open_s": ("s", "lower", "publish-audit", "setup_s"),
    "knowledge.publish_prior_s": ("s", "lower", "publish-audit", "primary_p50_s"),
    "anonymize.partition_s": ("s", "lower", "publish-audit", "primary_p50_s"),
    "knowledge.audit_prior_s": ("s", "lower", "publish-audit", "secondary_s"),
    "audit.posterior_s": ("s", "lower", "publish-audit", "secondary_s"),
    "anonymize.groups": ("count", "higher", "publish-audit", "primary_p50_s"),
    "audit.vulnerable_tuples": ("count", "lower", "publish-audit", "secondary_s"),
    "api.prior_estimations": ("count", "lower", "publish-audit", "secondary_s"),
    "api.prior_cache_hits": ("count", "higher", "publish-audit", "secondary_s"),
    "stream.prior_s": ("s", "lower", "stream-lifecycle", "primary_p50_s secondary_s"),
    "stream.audit_s": ("s", "lower", "stream-lifecycle", "primary_p50_s secondary_s"),
    "stream.table_s": ("s", "lower", "stream-lifecycle", "primary_p50_s secondary_s"),
    "stream.route_s": ("s", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.recheck_s": ("s", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.repartition_s": ("s", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.compact_partition_s": ("s", "lower", "stream-lifecycle", "primary_p50_s"),
    "store.write_s": ("s", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.reused_group_frac": ("frac", "higher", "stream-lifecycle", "primary_p50_s"),
    "stream.audit_recomputed_frac": ("frac", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.compaction_frac": ("frac", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.tick_operations": ("count", "higher", "stream-lifecycle", "secondary_s"),
    "stream.version_tail_s": ("s", "lower", "stream-lifecycle", "primary_p50_s"),
    "stream.version_tail_pct": ("pct", "higher", "stream-lifecycle", "primary_p50_s"),
    "serve.publish_p50_s": ("s", "lower", "serve-mixed", "primary_p50_s"),
    "serve.write_wait_s": ("s", "lower", "serve-mixed", "primary_p50_s"),
    "serve.read_p50_s": ("s", "lower", "serve-mixed", "primary_p50_s secondary_s"),
    "serve.read_handler_p50_s": ("s", "lower", "serve-mixed", "primary_p50_s secondary_s"),
    "serve.read_handler_p99_s": ("s", "lower", "serve-mixed", "primary_p50_s secondary_s"),
    "serve.publishes": ("count", "higher", "serve-mixed", "primary_p50_s"),
    "serve.coalesce_ratio": ("ratio", "higher", "serve-mixed", "primary_p50_s"),
    "serve.rejected_batches": ("count", "lower", "serve-mixed", "ok_frac"),
    "serve.failed_batches": ("count", "lower", "serve-mixed", "ok_frac"),
    "serve.write_tail_pct": ("pct", "higher", "serve-mixed", "secondary_s"),
    "serve.read_tail_s": ("s", "lower", "serve-mixed", "primary_p50_s secondary_s"),
    "serve.read_tail_pct": ("pct", "higher", "serve-mixed", "primary_p50_s secondary_s"),
    "bench.trace_overhead_frac": ("frac", "lower", "all", "primary_p50_s"),
    "bench.primary_samples": ("count", "higher", "all", "primary_p50_s"),
    "bench.secondary_samples": ("count", "higher", "all", "secondary_s"),
}

# Self-time share of each layer in the traced run's span tree.
LAYERS = ("data", "knowledge", "anonymize", "audit", "api", "stream", "store", "serve")
for _layer in LAYERS:
    PER_LAYER[f"self.{_layer}_frac"] = ("frac", "lower", "all", "primary_p50_s")
del _layer
