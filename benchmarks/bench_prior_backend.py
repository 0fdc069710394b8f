"""Factored prior backend vs the flat reference sweep (the PR-gated bench).

Contracts of the one shared estimation backend
(:mod:`repro.knowledge.backend`), each measured against the flat ``O(n^2 d)``
reference function :func:`~repro.knowledge.prior.flat_kernel_prior`:

* **wide schemas** - a >= 12-attribute schema whose joint rest-combination
  count exceeds ``max_cells`` must use the *hierarchical blocked
  contraction* and stay numerically identical to the flat reference
  (``<= 1e-12``) while being at least ``REPRO_BENCH_PRIOR_MIN_SPEEDUP``
  times faster;
* **single bandwidths** - the estimation behind every plain
  ``Pipeline.run()`` / ``BTPrivacy.prepare`` call routes through the same
  factored backend, so one-bandwidth priors on the Adult schema must beat
  the flat reference too;
* **parallel contraction** - the same wide blocked estimation run serially
  (``jobs=1``) and threaded (``jobs=REPRO_BENCH_BACKEND_JOBS``) must return
  *bitwise identical* priors, and the threaded run must clear the
  ``REPRO_BENCH_BACKEND_MIN_PAR_SPEEDUP`` floor when one is set (default 0:
  record, don't assert - a single-core machine cannot honestly clear 1.0;
  CI sets it).  The timed estimation uses the ``gaussian`` kernel, whose
  dense GEMM tiles are the arithmetic threads can share at this size: the
  compact-support kernels sum about one support term per query on this
  schema, so their contraction is dispatch-bound and only its bitwise
  identity is asserted (its thread ratio is printed).

Scale knobs:

* ``REPRO_BENCH_PRIOR_ROWS``       - Adult table size (default 5000);
* ``REPRO_BENCH_PRIOR_WIDE_ROWS``  - wide-schema table size (default 4000);
* ``REPRO_BENCH_PRIOR_MIN_SPEEDUP``- speedup floor for the flat-vs-blocked
  gates (default 3);
* ``REPRO_BENCH_BACKEND_JOBS``     - thread count for the parallel section
  (default: all cores; CI pins 4 so the section name stays stable);
* ``REPRO_BENCH_BACKEND_MIN_PAR_SPEEDUP`` - in-bench floor on
  ``parallel_speedup`` (default 0).

The measured numbers land in ``BENCH_prior_backend.json`` (sections
``wide-rows-<n>`` / ``pipeline-rows-<n>`` / ``parallel-rows-<n>-jobs-<j>``),
which CI regenerates at tiny size and compares against the committed
baseline with ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import write_bench_json

from repro.data.adult import generate_adult
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.prior import BatchedKernelPriorEstimator, flat_kernel_prior, kernel_prior

PRIOR_ROWS = int(os.environ.get("REPRO_BENCH_PRIOR_ROWS", "5000"))
WIDE_ROWS = int(os.environ.get("REPRO_BENCH_PRIOR_WIDE_ROWS", "4000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PRIOR_MIN_SPEEDUP", "3"))
REPEATS = int(os.environ.get("REPRO_BENCH_PRIOR_REPEATS", "3"))
JOBS = int(os.environ.get("REPRO_BENCH_BACKEND_JOBS", str(os.cpu_count() or 1)))
MIN_PAR_SPEEDUP = float(os.environ.get("REPRO_BENCH_BACKEND_MIN_PAR_SPEEDUP", "0"))


def _best_of(callable_, repeats: int = REPEATS):
    """Best-of-N wall clock (and the last result): tames sub-100ms jitter."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result

WIDE_ATTRIBUTES = 12
# A budget the wide schema's joint rest-combination count overshoots, so the
# fit *must* take the multi-block path (asserted below).  The observed joint
# count approaches WIDE_ROWS on this schema, so (WIDE_ROWS/2)^2 stays under
# it at every scale; the 1M cap keeps full-scale tiles/block joints fast.
WIDE_MAX_CELLS = int(
    os.environ.get("REPRO_BENCH_PRIOR_MAX_CELLS", min(1_000_000, (WIDE_ROWS // 2) ** 2))
)
BANDWIDTHS = (0.2, 0.3)


def _wide_table(n_rows: int, seed: int = 2009) -> MicrodataTable:
    """A >= 12-attribute mixed schema with enough cardinality to defeat dedup."""
    rng = np.random.default_rng(seed)
    attributes = []
    columns: dict = {}
    for i in range(WIDE_ATTRIBUTES):
        name = f"Q{i:02d}"
        if i % 3 == 0:
            attributes.append(numeric_qi(name))
            columns[name] = rng.integers(0, 9, n_rows).astype(float)
        else:
            attributes.append(categorical_qi(name))
            columns[name] = rng.choice([f"v{j}" for j in range(6)], n_rows).tolist()
    attributes.append(sensitive("Disease"))
    columns["Disease"] = rng.choice(
        ["flu", "cancer", "hiv", "cold", "ulcer"], n_rows
    ).tolist()
    return MicrodataTable.from_columns(Schema(attributes), columns)


def test_wide_schema_blocked_vs_flat_speedup():
    table = _wide_table(WIDE_ROWS)

    def run_flat():
        return [flat_kernel_prior(table, b) for b in BANDWIDTHS]

    def run_blocked():
        estimator = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=WIDE_MAX_CELLS))
        estimator.fit(table)
        return estimator, estimator.prior_for_table(BANDWIDTHS)

    flat_seconds, flat_priors = _best_of(run_flat)
    blocked_seconds, (blocked, blocked_priors) = _best_of(run_blocked)

    assert blocked.backend.n_blocks >= 2, (
        "the wide schema fits a single joint; raise WIDE_ROWS or lower WIDE_MAX_CELLS"
    )
    max_difference = max(
        float(np.abs(a.matrix - b).max())
        for a, b in zip(blocked_priors, flat_priors)
    )
    speedup = flat_seconds / blocked_seconds

    print(
        f"\nprior backend (wide): rows={WIDE_ROWS} attrs={WIDE_ATTRIBUTES} "
        f"blocks={blocked.backend.n_blocks} flat={flat_seconds:.3f}s "
        f"blocked={blocked_seconds:.3f}s speedup={speedup:.1f}x "
        f"max-diff={max_difference:.2e}"
    )
    write_bench_json(
        "prior_backend",
        f"wide-rows-{WIDE_ROWS}",
        {
            "rows": WIDE_ROWS,
            "attributes": WIDE_ATTRIBUTES,
            "bandwidths": len(BANDWIDTHS),
            "blocks": blocked.backend.n_blocks,
            "flat_seconds": flat_seconds,
            "blocked_seconds": blocked_seconds,
            "speedup": speedup,
            "max_difference": max_difference,
        },
    )
    assert max_difference < 1e-12
    assert speedup >= MIN_SPEEDUP, (
        f"blocked contraction is only {speedup:.1f}x faster than the flat sweep "
        f"(required: {MIN_SPEEDUP:g}x)"
    )


def test_single_bandwidth_pipeline_prior_speedup():
    table = generate_adult(PRIOR_ROWS, seed=2009)

    flat_seconds, flat = _best_of(lambda: flat_kernel_prior(table, 0.3))
    # What Pipeline.run() / BTPrivacy.prepare() now execute per bandwidth.
    factored_seconds, factored = _best_of(lambda: kernel_prior(table, 0.3))

    max_difference = float(np.abs(factored.matrix - flat).max())
    speedup = flat_seconds / factored_seconds

    print(
        f"\nprior backend (pipeline): rows={PRIOR_ROWS} flat={flat_seconds:.3f}s "
        f"factored={factored_seconds:.3f}s speedup={speedup:.1f}x "
        f"max-diff={max_difference:.2e}"
    )
    write_bench_json(
        "prior_backend",
        f"pipeline-rows-{PRIOR_ROWS}",
        {
            "rows": PRIOR_ROWS,
            "flat_seconds": flat_seconds,
            "factored_seconds": factored_seconds,
            "speedup": speedup,
            "max_difference": max_difference,
        },
    )
    assert max_difference < 1e-12
    assert speedup >= MIN_SPEEDUP, (
        f"the factored single-bandwidth path is only {speedup:.1f}x faster than "
        f"the flat sweep (required: {MIN_SPEEDUP:g}x)"
    )


def test_parallel_contraction_speedup():
    """Threaded tile contraction vs the serial reference, bitwise identical."""
    table = _wide_table(WIDE_ROWS)

    def backend(jobs: int, kernel: str) -> FactoredPriorBackend:
        config = EstimatorConfig(kernel=kernel, max_cells=WIDE_MAX_CELLS, jobs=jobs)
        return FactoredPriorBackend(config).fit(table)

    serial = backend(1, "gaussian")
    threaded = backend(JOBS, "gaussian")
    assert threaded.n_blocks >= 2, (
        "the wide schema fits a single joint; raise WIDE_ROWS or lower WIDE_MAX_CELLS"
    )
    assert threaded.jobs == JOBS

    serial_seconds, serial_matrices = _best_of(lambda: serial.matrices(BANDWIDTHS))
    parallel_seconds, parallel_matrices = _best_of(lambda: threaded.matrices(BANDWIDTHS))
    support_serial = backend(1, "epanechnikov")
    support_threaded = backend(JOBS, "epanechnikov")
    support_serial_seconds, support_serial_matrices = _best_of(
        lambda: support_serial.matrices(BANDWIDTHS)
    )
    support_parallel_seconds, support_parallel_matrices = _best_of(
        lambda: support_threaded.matrices(BANDWIDTHS)
    )

    # The whole point of the threaded path: not "close", *identical*.
    for ours, reference in zip(parallel_matrices, serial_matrices):
        assert np.array_equal(ours, reference)
    for ours, reference in zip(support_parallel_matrices, support_serial_matrices):
        assert np.array_equal(ours, reference)

    parallel_speedup = serial_seconds / parallel_seconds

    print(
        f"\nprior backend (parallel): rows={WIDE_ROWS} jobs={JOBS} "
        f"blocks={threaded.n_blocks} gaussian serial={serial_seconds:.3f}s "
        f"parallel={parallel_seconds:.3f}s speedup={parallel_speedup:.2f}x; "
        f"epanechnikov serial={support_serial_seconds:.4f}s "
        f"parallel={support_parallel_seconds:.4f}s "
        f"ratio={support_serial_seconds / support_parallel_seconds:.2f}x"
    )
    write_bench_json(
        "prior_backend",
        f"parallel-rows-{WIDE_ROWS}-jobs-{JOBS}",
        {
            "rows": WIDE_ROWS,
            "attributes": WIDE_ATTRIBUTES,
            "bandwidths": len(BANDWIDTHS),
            "kernel": "gaussian",
            "jobs": JOBS,
            "blocks": threaded.n_blocks,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "parallel_speedup": parallel_speedup,
        },
    )
    if MIN_PAR_SPEEDUP > 0:
        assert parallel_speedup >= MIN_PAR_SPEEDUP, (
            f"{JOBS} contraction threads only reached {parallel_speedup:.2f}x the "
            f"serial path (required: {MIN_PAR_SPEEDUP:g}x)"
        )
