"""Threaded-vs-serial equivalence for the parallel factored contraction.

The contract under test: ``jobs=N`` never changes results.  Per-tile tasks
write disjoint output slices with arithmetic identical to the serial loop,
so threaded priors are *bitwise* equal to ``jobs=1``, across every
kernel, per-attribute bandwidths, blocked wide schemas, generic unseen-combo
queries and the full incremental lifecycle.  The growth-aware block layout
is separately checked against the flat reference sweep to ``<= 1e-12``.
"""

import numpy as np
import pytest

from repro.data.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.parallel import (
    JOBS_ENV,
    default_jobs,
    parse_jobs,
    resolve_jobs,
    run_tasks,
)
from repro.knowledge.prior import BatchedKernelPriorEstimator, flat_kernel_prior

KERNELS = ["epanechnikov", "uniform", "triangular", "biweight", "gaussian"]
BANDWIDTHS = [0.1, 0.3, 0.5]
JOBS = 4  # the container may have one core; the pool still runs 4 threads


def _dense_table(n=400, seed=3):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Attribute("A", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("B", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("C", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("S", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE),
        ]
    )
    columns = {
        "A": rng.integers(0, 12, n).astype(float),
        "B": rng.choice(list("xyz"), n),
        "C": rng.choice(list("pq"), n),
        "S": rng.choice(["flu", "cold", "hiv", "ok"], n),
    }
    return MicrodataTable(schema, columns)


def _wide_table(n=300, seed=41, qi=11):
    """A 12-attribute table whose rest set splits into several blocks."""
    rng = np.random.default_rng(seed)
    attributes = [
        Attribute(f"q{i}", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER)
        for i in range(qi)
    ]
    attributes.append(Attribute("S", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE))
    columns = {
        f"q{i}": rng.choice([f"v{i}-{j}" for j in range(2 + i % 3)], n)
        for i in range(qi)
    }
    columns["S"] = rng.choice(["flu", "cold", "hiv", "ok"], n)
    return MicrodataTable(Schema(attributes), columns)


def _priors(table, bandwidths, **options):
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(**options)).fit(table)
    return [beliefs.matrix for beliefs in estimator.prior_for_table(bandwidths)]


def _assert_bitwise(threaded, serial):
    assert len(threaded) == len(serial)
    for a, b in zip(threaded, serial):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel", KERNELS)
def test_threaded_priors_bitwise_match_serial(kernel):
    table = _dense_table()
    _assert_bitwise(
        _priors(table, BANDWIDTHS, kernel=kernel, jobs=JOBS),
        _priors(table, BANDWIDTHS, kernel=kernel, jobs=1),
    )


def test_per_attribute_bandwidths_bitwise_match_serial():
    table = _dense_table(seed=7)
    names = table.quasi_identifier_names
    bandwidths = [
        Bandwidth({names[0]: 0.1, names[1]: 0.4, names[2]: 0.2}),
        Bandwidth({names[0]: 0.3, names[1]: 0.1, names[2]: 0.5}),
    ]
    _assert_bitwise(
        _priors(table, bandwidths, jobs=JOBS), _priors(table, bandwidths, jobs=1)
    )


@pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian"])
def test_wide_blocked_schema_threaded_matches_serial_and_flat(kernel):
    table = _wide_table()
    threaded = BatchedKernelPriorEstimator(
        EstimatorConfig(kernel=kernel, max_cells=256, jobs=JOBS)
    ).fit(table)
    assert threaded.backend.n_blocks > 1  # the budget forces a real split
    serial = _priors(table, BANDWIDTHS, kernel=kernel, max_cells=256, jobs=1)
    _assert_bitwise(
        [beliefs.matrix for beliefs in threaded.prior_for_table(BANDWIDTHS)], serial
    )
    flat = [flat_kernel_prior(table, b, kernel=kernel) for b in BANDWIDTHS]
    difference = max(
        float(np.abs(a - b).max()) for a, b in zip(serial, flat)
    )
    assert difference <= 1e-12


@pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian"])
def test_matrix_for_codes_unseen_combos_bitwise_match_serial(kernel):
    table = _dense_table(seed=9)
    threaded = BatchedKernelPriorEstimator(EstimatorConfig(kernel=kernel, jobs=JOBS))
    serial = BatchedKernelPriorEstimator(EstimatorConfig(kernel=kernel, jobs=1))
    threaded, serial = threaded.fit(table).backend, serial.fit(table).backend
    sizes = table.qi_code_matrix().max(axis=0) + 1
    # The full code grid: includes combinations absent from the table.
    grids = np.meshgrid(*[np.arange(size) for size in sizes], indexing="ij")
    queries = np.stack([grid.ravel() for grid in grids], axis=1)
    for b in (0.2, Bandwidth.uniform(table.quasi_identifier_names, 0.4)):
        assert np.array_equal(
            threaded.matrix_for_codes(queries, b), serial.matrix_for_codes(queries, b)
        )


def _replace(table, positions, donor_positions):
    columns = {name: table.column(name).copy() for name in table.schema.names}
    for name in table.schema.names:
        columns[name][positions] = table.column(name)[donor_positions]
    domains = {name: table.domain(name) for name in table.schema.names}
    return MicrodataTable(table.schema, columns, domains=domains)


def test_incremental_lifecycle_threaded_matches_serial():
    """append -> remove -> update keeps jobs=4 bitwise equal to jobs=1."""
    table = _dense_table(seed=11)
    extra = _dense_table(n=80, seed=12)
    estimators = {
        jobs: BatchedKernelPriorEstimator(
            EstimatorConfig(jobs=jobs), incremental=True
        ).fit(table)
        for jobs in (1, JOBS)
    }
    for estimator in estimators.values():
        estimator.prior_for_table(BANDWIDTHS)  # populate the contraction caches
    rng = np.random.default_rng(19)

    current = table.extend({name: extra.column(name) for name in table.schema.names})
    assert {e.append_rows(current) for e in estimators.values()} == {"incremental"}
    _assert_bitwise(
        [p.matrix for p in estimators[JOBS].prior_for_table(BANDWIDTHS)],
        [p.matrix for p in estimators[1].prior_for_table(BANDWIDTHS)],
    )

    removed = np.sort(rng.choice(current.n_rows, size=40, replace=False))
    current = current.select(np.setdiff1d(np.arange(current.n_rows), removed))
    assert {
        e.remove_rows(current, removed) for e in estimators.values()
    } == {"incremental"}
    _assert_bitwise(
        [p.matrix for p in estimators[JOBS].prior_for_table(BANDWIDTHS)],
        [p.matrix for p in estimators[1].prior_for_table(BANDWIDTHS)],
    )

    positions = np.sort(rng.choice(current.n_rows, size=30, replace=False))
    current = _replace(current, positions, rng.integers(0, current.n_rows, size=30))
    assert {
        e.update_rows(current, positions) for e in estimators.values()
    } == {"incremental"}
    _assert_bitwise(
        [p.matrix for p in estimators[JOBS].prior_for_table(BANDWIDTHS)],
        [p.matrix for p in estimators[1].prior_for_table(BANDWIDTHS)],
    )

    # And the maintained threaded state still matches a scratch fit.
    scratch = _priors(current, BANDWIDTHS)
    maintained = [p.matrix for p in estimators[JOBS].prior_for_table(BANDWIDTHS)]
    assert max(
        float(np.abs(a - b).max()) for a, b in zip(maintained, scratch)
    ) <= 1e-12


def _skewed_table(n=500, seed=29):
    """Solo A; rest X1 (card 10), X2 correlated with X1, X3 independent."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Attribute("A", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("X1", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("X3", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("X2", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("S", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE),
        ]
    )
    base = rng.integers(0, 10, n)
    columns = {
        "A": rng.integers(0, 50, n).astype(float),
        "X1": np.asarray([f"v{i}" for i in base]),
        "X2": np.asarray([f"w{i}" for i in base]),  # a function of X1
        "X3": rng.choice([f"u{i}" for i in range(9)], n),
        "S": rng.choice(["flu", "cold", "hiv", "ok"], n),
    }
    return MicrodataTable(schema, columns)


def test_growth_aware_layout_groups_correlated_attributes():
    """X2 is a function of X1, so blocking them together costs c_b=10 while
    any pairing with X3 realizes ~90 combos; the growth-aware layout must
    put the correlated pair in one block under a budget that only fits it."""
    table = _skewed_table()
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=150)).fit(table)
    blocks = estimator.backend.blocks
    assert any({"X1", "X2"} <= set(block) for block in blocks)
    assert all("X3" not in block or len(block) == 1 for block in blocks)
    # The layout choice never changes the estimate: compare to the flat sweep.
    blocked = _priors(table, BANDWIDTHS, max_cells=150)
    flat = [flat_kernel_prior(table, b) for b in BANDWIDTHS]
    assert max(
        float(np.abs(a - b).max()) for a, b in zip(blocked, flat)
    ) <= 1e-12


def test_single_block_layout_keeps_schema_order():
    """When the whole rest set fits one block, unique-count monotonicity
    makes the greedy loop add every column - reproducing the pre-existing
    schema-order single block exactly."""
    table = _dense_table(seed=15)
    estimator = BatchedKernelPriorEstimator().fit(table)
    rest = [
        name
        for name in table.quasi_identifier_names
        if name != table.quasi_identifier_names[0]  # "A" is solo (largest domain)
    ]
    assert estimator.backend.blocks == (tuple(rest),)


def test_jobs_validation():
    for bad in (0, -1, 2.5, "many", True):
        with pytest.raises(KnowledgeError):
            parse_jobs(bad)
        with pytest.raises(KnowledgeError):
            EstimatorConfig(jobs=bad)
    with pytest.raises(KnowledgeError):
        BatchedKernelPriorEstimator(EstimatorConfig(jobs=0))
    assert parse_jobs(3) == 3
    assert parse_jobs("5") == 5
    assert resolve_jobs(2) == 2


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "3")
    assert default_jobs() == 3
    assert resolve_jobs(None) == 3
    estimator = BatchedKernelPriorEstimator().fit(_dense_table(n=50, seed=17))
    assert estimator.backend.jobs == 3
    # An explicit count always beats the environment.
    explicit = BatchedKernelPriorEstimator(EstimatorConfig(jobs=2))
    explicit.fit(_dense_table(n=50, seed=17))
    assert explicit.backend.jobs == 2
    monkeypatch.setenv(JOBS_ENV, "zero-cores")
    with pytest.raises(KnowledgeError):
        default_jobs()
    monkeypatch.delenv(JOBS_ENV)
    assert default_jobs() >= 1


def test_run_tasks_preserves_order_and_propagates_errors():
    tasks = [lambda value=value: value * value for value in range(20)]
    assert run_tasks(tasks, 1) == [value * value for value in range(20)]
    assert run_tasks(tasks, JOBS) == [value * value for value in range(20)]

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        run_tasks([lambda: 1, boom, lambda: 3], JOBS)


def test_run_tasks_raises_only_after_every_sibling_settles():
    """A failing task must not hand control back while a sibling still runs."""
    import time

    finished = []

    def boom():
        raise ValueError("boom")

    def sleeper():
        time.sleep(0.5)
        finished.append(True)

    with pytest.raises(ValueError, match="boom"):
        run_tasks([boom, sleeper], JOBS)
    assert finished == [True]


def _fit_in_forked_child(jobs):
    """Worker body: the shared pool plus a prior fit, both at ``jobs`` threads."""
    squares = run_tasks([lambda value=value: value * value for value in range(8)], jobs)
    return squares, _priors(_dense_table(), [Bandwidth.uniform(["A", "B", "C"], 0.3)], jobs=jobs)


def test_forked_worker_gets_a_fresh_shared_pool():
    """A fork child must not inherit the parent's thread pool without its threads.

    The parent creates the shared pool first; a fork-start worker then runs
    pool work and a ``jobs=2`` prior fit.  Without the at-fork reset the
    child waits forever on futures no thread will run, so the bounded
    ``get`` turns that regression into a failure instead of a hang.
    """
    import multiprocessing
    import threading

    # Two tasks that wait for each other force the parent's pool to its full
    # two threads, so an inherited copy would never start another one.
    barrier = threading.Barrier(2, timeout=30)

    def rendezvous(value):
        barrier.wait()
        return value

    assert run_tasks([lambda: rendezvous(1), lambda: rendezvous(2)], 2) == [1, 2]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        squares, priors = pool.apply_async(_fit_in_forked_child, (2,)).get(timeout=60)
    assert squares == [value * value for value in range(8)]
    reference = _priors(_dense_table(), [Bandwidth.uniform(["A", "B", "C"], 0.3)], jobs=1)
    _assert_bitwise(priors, reference)
