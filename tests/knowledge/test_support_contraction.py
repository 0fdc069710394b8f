"""Differential tests of the support-indexed contraction.

Compact-support kernels hold each block joint as its support (neighbour
lists enumerated from the closed ``d <= B`` balls) and sum only each
query's support terms.  The contract pinned here, on seeded random tables
whose numeric distances are exact binary fractions - so bandwidths can sit
*exactly* on a neighbour distance, where ``uniform`` still weighs the
boundary and the open kernels give an exact zero:

* priors match the flat ``O(n^2 d)`` reference to ``<= 1e-12``;
* ``jobs`` never changes a bit, and a chunked fit equals the resident fit;
* an append -> remove -> update run stays within ``1e-12`` of a scratch fit
  while every query the delta cannot reach keeps its exact bits;
* a query whose support holds a single term is bitwise equal to the dense
  ``rows @ contracted`` GEMM oracle below (the contraction the dense path
  runs), and multi-term queries agree with it to round-off.

Every check runs at budgets that split the rest attributes into 1, 2 and 3
blocks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.distance import attribute_distance_matrix
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.source import InMemoryTableSource
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import get_kernel
from repro.knowledge.prior import flat_kernel_prior
from repro.obs.tracing import Tracer

COMPACT_KERNELS = ["epanechnikov", "uniform", "triangular", "biweight"]
SEEDS = [5, 23]
# N1 spans 0..4 and N2 0..2, so their neighbour distances are multiples of
# 0.25 and 0.5; the categorical attributes use the discrete 0/1 metric.
PER_ATTRIBUTE = Bandwidth({"A": 0.3, "N1": 0.25, "N2": 0.5, "C1": 0.4, "C2": 1.0})
BANDWIDTHS = [0.2, 0.25, 0.5, PER_ATTRIBUTE]
BUDGETS = [10**6, 4_000, 1_000, 300, 100, 64, 30, 10, 1]


def _expanded(backend, bandwidths) -> list[np.ndarray]:
    """The backend's per-row prior matrices: each ``prior_rows`` pair expanded."""
    return [rows[index] for rows, index in backend.prior_rows(bandwidths)]


def _random_table(n_rows: int, seed: int) -> MicrodataTable:
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            numeric_qi("A"),
            numeric_qi("N1"),
            numeric_qi("N2"),
            categorical_qi("C1"),
            categorical_qi("C2"),
            sensitive("S"),
        ]
    )
    columns = {
        "A": rng.integers(0, 10, n_rows).astype(float),
        "N1": rng.integers(0, 5, n_rows).astype(float),
        "N2": rng.integers(0, 3, n_rows).astype(float),
        "C1": rng.choice(["x", "y", "z"], n_rows),
        "C2": rng.choice(["p", "q"], n_rows),
        "S": rng.choice(["flu", "cold", "hiv", "ok"], n_rows),
    }
    # Pin every domain's extremes so the normalised distances are exact.
    for name, value in (("A", 0.0), ("N1", 0.0), ("N2", 0.0)):
        columns[name][0] = value
    for name, value in (("A", 9.0), ("N1", 4.0), ("N2", 2.0)):
        columns[name][1] = value
    return MicrodataTable.from_columns(schema, columns)


def _budgets_by_blocks(table: MicrodataTable) -> dict[int, int]:
    """The largest budget of the ladder giving 1, 2 and 3 rest blocks."""
    found: dict[int, int] = {}
    for max_cells in BUDGETS:
        blocks = FactoredPriorBackend(EstimatorConfig(max_cells=max_cells)).fit(table).n_blocks
        found.setdefault(blocks, max_cells)
    assert {1, 2, 3} <= set(found), found
    return {blocks: found[blocks] for blocks in (1, 2, 3)}


@pytest.fixture(scope="module", params=SEEDS)
def case(request):
    table = _random_table(240, request.param)
    return table, _budgets_by_blocks(table)


def _matrices(table, bandwidths, **config) -> list[np.ndarray]:
    return _expanded(FactoredPriorBackend(EstimatorConfig(**config)).fit(table), bandwidths)


def _weights(table, kernel, bandwidth: Bandwidth) -> dict[str, np.ndarray]:
    function = get_kernel(kernel)
    return {
        name: function(attribute_distance_matrix(table.domain(name)), bandwidth[name])
        for name in table.quasi_identifier_names
    }


def _dense_oracle(backend: FactoredPriorBackend, kernel: str, b) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``rows @ contracted`` numerators and per-query support sizes.

    Builds every query's full joint row as the dense chain does - the
    kernel product over each block's attributes in block order, chained
    over the blocks in block order - and contracts it with one GEMM per
    solo code against ``W_solo @ M``.
    """
    table = backend.table
    bandwidth = backend.resolve_bandwidth(b)
    weights = _weights(table, kernel, bandwidth)
    names = list(table.quasi_identifier_names)
    n_combos = backend._n_combos
    counts = backend._count_tensor
    solo = weights[backend.solo]
    contracted = (solo @ counts.reshape(solo.shape[0], -1)).reshape(counts.shape)
    rest_names = [names[i] for i in backend._rest_indices]
    combos = backend._rest_combos[:n_combos]
    query_rest = backend._query_rest
    rows = None
    for block_names in backend.blocks:
        joint = None
        for name in block_names:
            column = combos[:, rest_names.index(name)]
            factor = weights[name][column[query_rest]][:, column]
            joint = factor if joint is None else joint * factor
        rows = joint if rows is None else rows * joint
    numerators = np.empty((query_rest.size, counts.shape[2]))
    for a in np.unique(backend._query_solo):
        chosen = backend._query_solo == a
        numerators[chosen] = rows[chosen] @ contracted[a]
    return numerators, (rows > 0.0).sum(axis=1)


@pytest.mark.parametrize("kernel", COMPACT_KERNELS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_matches_flat_reference(case, kernel, blocks):
    table, budgets = case
    support = _matrices(table, BANDWIDTHS, kernel=kernel, max_cells=budgets[blocks])
    flat = [flat_kernel_prior(table, b, kernel=kernel) for b in BANDWIDTHS]
    for ours, reference in zip(support, flat):
        np.testing.assert_allclose(ours, reference, atol=1e-12, rtol=0)


@pytest.mark.parametrize("kernel", COMPACT_KERNELS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_bitwise_across_jobs_and_chunked_fit(case, kernel, blocks):
    table, budgets = case
    serial = _matrices(table, BANDWIDTHS, kernel=kernel, max_cells=budgets[blocks], jobs=1)
    threaded = _matrices(table, BANDWIDTHS, kernel=kernel, max_cells=budgets[blocks], jobs=3)
    chunked = _expanded(
        FactoredPriorBackend(EstimatorConfig(kernel=kernel, max_cells=budgets[blocks])).fit(
            InMemoryTableSource(table, chunk_rows=37)
        ),
        BANDWIDTHS,
    )
    for reference, ours, streamed in zip(serial, threaded, chunked):
        assert np.array_equal(ours, reference)
        assert np.array_equal(streamed, reference)


@pytest.mark.parametrize("kernel", COMPACT_KERNELS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_single_term_supports_match_dense_oracle_bitwise(case, kernel, blocks):
    table, budgets = case
    backend = FactoredPriorBackend(
        EstimatorConfig(kernel=kernel, max_cells=budgets[blocks])
    ).fit(table)
    single_seen = multi_seen = 0
    for b, matrix in zip(BANDWIDTHS, _expanded(backend, BANDWIDTHS)):
        numerators, sizes = _dense_oracle(backend, kernel, b)
        oracle = (numerators / numerators.sum(axis=1)[:, None])[backend._query_inverse]
        single = (sizes == 1)[backend._query_inverse]
        assert np.array_equal(matrix[single], oracle[single])
        np.testing.assert_allclose(matrix, oracle, atol=1e-12, rtol=0)
        single_seen += int(single.sum())
        multi_seen += int((~single).sum())
    assert single_seen and multi_seen  # both regimes really occurred


def _touched(table, kernel, bandwidth, rows: np.ndarray, changed: MicrodataTable) -> np.ndarray:
    """Rows of ``table`` with a positive kernel weight to any ``changed`` row."""
    weights = _weights(table, kernel, bandwidth)
    reach = np.ones((rows.size, changed.n_rows), dtype=bool)
    for name in table.quasi_identifier_names:
        reach &= weights[name][table.codes(name)[rows]][:, changed.codes(name)] > 0.0
    return reach.any(axis=1)


def _extend(table: MicrodataTable, extra: MicrodataTable) -> MicrodataTable:
    return table.extend({name: extra.column(name) for name in table.schema.names})


def _subset(table: MicrodataTable, rows: np.ndarray) -> MicrodataTable:
    domains = {name: table.domain(name) for name in table.schema.names}
    return MicrodataTable.from_codes(
        table.schema, {name: table.codes(name)[rows] for name in table.schema.names}, domains
    )


@pytest.mark.parametrize("kernel", COMPACT_KERNELS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_lifecycle_matches_scratch_and_keeps_untouched_bits(case, kernel, blocks):
    table, budgets = case
    config = EstimatorConfig(kernel=kernel, max_cells=budgets[blocks])
    base = table.select(np.arange(180))
    backend = FactoredPriorBackend(config, incremental=True).fit(base)
    bandwidths = [backend.resolve_bandwidth(b) for b in BANDWIDTHS]
    before = _expanded(backend, bandwidths)
    rng = np.random.default_rng(blocks)
    untouched_seen = 0

    def check(current, result, kept_before, changed):
        nonlocal untouched_seen
        assert result == "incremental"
        after = _expanded(backend, bandwidths)
        scratch = _expanded(FactoredPriorBackend(config).fit(current), bandwidths)
        for bandwidth, old, new, reference in zip(bandwidths, before, after, scratch):
            np.testing.assert_allclose(new, reference, atol=1e-12, rtol=0)
            rows = np.flatnonzero(kept_before >= 0)
            untouched = rows[~_touched(current, kernel, bandwidth, rows, changed)]
            assert np.array_equal(new[untouched], old[kept_before[untouched]])
            untouched_seen += untouched.size
        return after

    # Append: the first 180 rows stay in place; the rest bring new combos.
    current = _extend(base, table.select(np.arange(180, 240)))
    result = backend.append_rows(current)
    kept = np.concatenate([np.arange(180), np.full(60, -1)])
    before = check(current, result, kept, table.select(np.arange(180, 240)))

    # Remove 25 rows: survivors map back to their old positions.
    removed = np.sort(rng.choice(current.n_rows, size=25, replace=False))
    survivors = np.setdiff1d(np.arange(current.n_rows), removed)
    gone = current.select(removed)
    current = current.select(survivors)
    result = backend.remove_rows(current, removed)
    before = check(current, result, survivors, gone)

    # Update 15 rows in place to other rows' values (domains unchanged).
    positions = np.sort(rng.choice(current.n_rows, size=15, replace=False))
    donors = rng.integers(0, current.n_rows, size=15)
    rows = np.arange(current.n_rows)
    rows[positions] = donors
    old_values = current.select(positions)
    current = _subset(current, rows)
    result = backend.update_rows(current, positions)
    kept = np.arange(current.n_rows)
    kept[positions] = -1
    changed = _extend(old_values, current.select(positions))
    check(current, result, kept, changed)
    assert untouched_seen  # the bitwise-stability check was not vacuous


def test_support_working_set_stays_within_the_cell_budget():
    """A small ``max_cells`` bounds the contraction's allocations.

    About 19 support terms per query: holding every query's term arrays at
    once (three 8-byte values per term) would need several times the bound
    asserted here, which allows a few ``max_cells`` of float64 tiles plus
    the per-query bookkeeping every contraction carries.
    """
    rng = np.random.default_rng(11)
    n_rows = 20_000
    schema = Schema([numeric_qi("A"), numeric_qi("B"), numeric_qi("C"), sensitive("S")])
    table = MicrodataTable.from_columns(
        schema,
        {
            "A": rng.integers(0, 20, n_rows).astype(float),
            "B": rng.integers(0, 60, n_rows).astype(float),
            "C": rng.integers(0, 40, n_rows).astype(float),
            "S": rng.choice(["flu", "cold", "hiv", "ok"], n_rows),
        },
    )
    max_cells = 20_000
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=max_cells, jobs=1)).fit(table)
    bandwidth = backend.resolve_bandwidth(0.1)
    path, joints = backend._build_block_joints(bandwidth, Tracer())
    assert path == "support" and backend.n_blocks == 2
    solo = backend._bandwidth_weights(bandwidth, backend.solo)
    counts = backend._count_tensor
    contracted = (solo @ counts.reshape(solo.shape[0], -1)).reshape(counts.shape)
    queries = backend._pair_keys.size
    numerators = np.empty((queries, counts.shape[2]))

    tracemalloc.start()
    try:
        _, terms = backend._contract_support(
            numerators, np.arange(queries), joints, contracted
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    bound = 8 * (4 * max_cells + 8 * queries)
    assert terms > 15 * queries  # multi-term supports throughout
    assert 24 * terms > 2 * bound  # whole-contraction term arrays would not fit
    assert peak <= bound, (peak, bound)
    one_block = FactoredPriorBackend(EstimatorConfig()).fit(table)
    assert one_block.n_blocks == 1
    np.testing.assert_allclose(
        backend._normalise(numerators)[backend._query_inverse],
        _expanded(one_block, [0.1])[0],
        atol=1e-12,
        rtol=0,
    )
