"""Hierarchical blocked contraction vs the flat reference sweep.

Wide / high-cardinality schemas blow any single-joint budget, so the backend
splits the rest attributes into blocks whose chained contractions stay under
``max_cells``; these tests pin the core contract: for *any* budget the
priors match the flat ``O(n^2 d)`` reference
(:func:`~repro.knowledge.prior.flat_kernel_prior`) to ``<= 1e-12``, tiny
budgets really do produce multi-block splits, and the count-tensor memory
guard drops the solo split instead of leaving the factored path.
"""

import numpy as np
import pytest

from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge import backend as backend_module
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import kernel_names
from repro.knowledge.prior import BatchedKernelPriorEstimator, flat_kernel_prior

N_ATTRIBUTES = 12


def _expanded(backend, bandwidths) -> list[np.ndarray]:
    """The backend's per-row prior matrices: each ``prior_rows`` pair expanded."""
    return [rows[index] for rows, index in backend.prior_rows(bandwidths)]


def _wide_table(n_rows: int = 420, n_attributes: int = N_ATTRIBUTES, seed: int = 3):
    """A wide table: >= 12 mixed low-cardinality QI attributes, 5 sensitive values.

    Low per-attribute cardinality keeps the observed per-block combination
    counts growing gradually with the block width, so shrinking ``max_cells``
    walks through every block-split depth instead of jumping straight from
    one block to singletons.
    """
    rng = np.random.default_rng(seed)
    attributes = []
    columns: dict = {}
    for i in range(n_attributes):
        name = f"Q{i:02d}"
        if i % 3 == 0:
            attributes.append(numeric_qi(name))
            columns[name] = rng.integers(0, 3, n_rows).astype(float)
        else:
            attributes.append(categorical_qi(name))
            columns[name] = rng.choice(["a", "b"], n_rows).tolist()
    attributes.append(sensitive("Disease"))
    columns["Disease"] = rng.choice(
        ["flu", "cancer", "hiv", "cold", "ulcer"], n_rows
    ).tolist()
    return MicrodataTable.from_columns(Schema(attributes), columns)


@pytest.fixture(scope="module")
def wide_table():
    table = _wide_table()
    assert len(table.quasi_identifier_names) >= 12
    return table


@pytest.fixture(scope="module")
def per_attribute_bandwidth(wide_table):
    names = list(wide_table.quasi_identifier_names)
    return Bandwidth({name: 0.15 + 0.05 * (i % 5) for i, name in enumerate(names)})


def test_wide_schema_blows_single_joint_budget(wide_table):
    """The wide fixture really is the regime the blocked mode exists for."""
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=600)).fit(wide_table)
    assert backend.solo is not None
    assert backend.n_blocks >= 2
    # Every block joint respects the budget on its own.
    for block_names in backend.blocks:
        assert len(block_names) >= 1


@pytest.mark.parametrize("kernel", kernel_names())
def test_blocked_matches_flat_reference_every_kernel(
    wide_table, per_attribute_bandwidth, kernel
):
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(kernel=kernel, max_cells=600))
    estimator.fit(wide_table)
    assert estimator.backend.n_blocks >= 2
    blocked = estimator.prior_for_table([per_attribute_bandwidth, 0.3])
    for bandwidth, priors in zip([per_attribute_bandwidth, 0.3], blocked):
        reference = flat_kernel_prior(wide_table, bandwidth, kernel=kernel)
        np.testing.assert_allclose(priors.matrix, reference, atol=1e-12, rtol=0)


def test_tiny_budgets_force_1_2_and_3_block_splits(wide_table, per_attribute_bandwidth):
    """Shrinking max_cells splits the rest attributes into more blocks, exactly."""
    reference = flat_kernel_prior(wide_table, per_attribute_bandwidth)
    seen_blocks = []
    for max_cells in (64_000_000, 20_000, 1_000, 100, 10, 1):
        estimator = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=max_cells))
        estimator.fit(wide_table)
        seen_blocks.append(estimator.backend.n_blocks)
        matrix = estimator.prior_for_table([per_attribute_bandwidth])[0].matrix
        np.testing.assert_allclose(matrix, reference, atol=1e-12, rtol=0)
    # Budgets are monotone: smaller budgets never merge blocks ...
    assert seen_blocks == sorted(seen_blocks)
    # ... and the ladder passes through single-, two- and three-block splits
    # down to fully singleton blocks (one per rest attribute).
    assert seen_blocks[0] == 1
    assert 2 in seen_blocks
    assert 3 in seen_blocks
    assert seen_blocks[-1] == len(wide_table.quasi_identifier_names) - 1


def test_blocked_block_layout_covers_every_rest_attribute(wide_table):
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=400)).fit(wide_table)
    covered = [name for block in backend.blocks for name in block]
    qi_names = list(wide_table.quasi_identifier_names)
    solo = backend.solo
    assert sorted(covered) == sorted(name for name in qi_names if name != solo)
    # Deterministic, documented layout: schema order with the solo removed.
    assert covered == [name for name in qi_names if name != solo]


def test_blocked_incremental_append_matches_scratch(per_attribute_bandwidth):
    """append_rows equivalence under the blocked mode (the streaming contract)."""
    full = _wide_table(n_rows=300)
    tables = [full.select(np.arange(stop)) for stop in (200, 240, 270, 300)]
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=400), incremental=True)
    estimator.fit(tables[0])
    assert estimator.backend.n_blocks >= 3
    estimator.prior_for_table([per_attribute_bandwidth, 0.3])  # populate the caches
    for grown in tables[1:]:
        assert estimator.append_rows(grown) == "incremental"
        updated = estimator.prior_for_table([per_attribute_bandwidth, 0.3])
        scratch = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=400)).fit(grown)
        for a, b in zip(updated, scratch.prior_for_table([per_attribute_bandwidth, 0.3])):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12, rtol=0)
        flat = flat_kernel_prior(grown, per_attribute_bandwidth)
        np.testing.assert_allclose(updated[0].matrix, flat, atol=1e-12, rtol=0)


def test_blocked_incremental_keeps_far_priors_bitwise_unchanged():
    seed_table = _wide_table(n_rows=220)
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=400), incremental=True)
    estimator.fit(seed_table)
    before = estimator.prior_for_table([0.1])[0].matrix
    # Append twins of the first rows with a *different* sensitive value: at
    # b=0.1 (exact-match kernel support) exactly those rows' priors move.
    twins = [dict(seed_table.row(i)) for i in range(10)]
    for row in twins:
        row["Disease"] = "flu" if row["Disease"] != "flu" else "cancer"
    grown = seed_table.extend(
        {name: [row[name] for row in twins] for name in seed_table.schema.names}
    )
    assert estimator.append_rows(grown) == "incremental"
    after = estimator.prior_for_table([0.1])[0].matrix
    unchanged = (after[:220] == before).all(axis=1)
    assert 0 < unchanged.sum() < 220
    scratch = BatchedKernelPriorEstimator(EstimatorConfig(max_cells=400)).fit(grown)
    np.testing.assert_allclose(
        after, scratch.prior_for_table([0.1])[0].matrix, atol=1e-12, rtol=0
    )


def test_prior_for_codes_matches_flat_reference(wide_table, per_attribute_bandwidth):
    """The generic query-codes path (unseen combinations included) is exact too."""
    config = EstimatorConfig(max_cells=400)
    blocked = FactoredPriorBackend(config).fit(wide_table)
    rng = np.random.default_rng(5)
    sizes = [wide_table.domain(n).size for n in wide_table.quasi_identifier_names]
    queries = np.column_stack([rng.integers(0, s, 40) for s in sizes])
    np.testing.assert_allclose(
        blocked.matrix_for_codes(queries, per_attribute_bandwidth),
        flat_kernel_prior(wide_table, per_attribute_bandwidth, query_codes=queries),
        atol=1e-12,
        rtol=0,
    )


def test_estimator_config_validation():
    for bad in (0, -1):
        with pytest.raises(KnowledgeError, match="max_cells"):
            EstimatorConfig(max_cells=bad)
    # Integer settings are validated, not truncated.
    for bad in (0.5, 64e6, True):
        with pytest.raises(KnowledgeError, match="max_cells"):
            EstimatorConfig(max_cells=bad)
    assert EstimatorConfig(max_cells=np.int64(400)).max_cells == 400


def test_count_tensor_memory_guard_drops_the_solo_split(
    wide_table, per_attribute_bandwidth, monkeypatch
):
    """A count tensor over the guard drops the solo split; past that, fit refuses."""
    # The guard is independent of max_cells: a tiny contraction budget with a
    # roomy count guard keeps the solo split.
    blocked = FactoredPriorBackend(EstimatorConfig(max_cells=400)).fit(wide_table)
    assert blocked.solo is not None
    solo_cells = blocked._count_storage.size
    monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", solo_cells - 1)
    guarded = FactoredPriorBackend(EstimatorConfig(max_cells=400)).fit(wide_table)
    assert guarded.solo is None
    assert guarded._count_storage.shape[0] == 1
    assert guarded._count_storage.size <= solo_cells - 1
    assert sorted(name for block in guarded.blocks for name in block) == sorted(
        wide_table.quasi_identifier_names
    )
    np.testing.assert_allclose(
        _expanded(guarded, [per_attribute_bandwidth])[0],
        _expanded(blocked, [per_attribute_bandwidth])[0],
        atol=1e-12,
        rtol=0,
    )
    monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", 100)
    with pytest.raises(KnowledgeError, match=f"{solo_cells} cells with the solo split"):
        FactoredPriorBackend(EstimatorConfig(max_cells=400)).fit(wide_table)


@pytest.mark.parametrize("layout", ["solo", "no-solo"])
def test_fitted_solo_column_owns_its_memory(
    wide_table, per_attribute_bandwidth, layout, monkeypatch
):
    """The fit keeps a copy of the solo column, not a view pinning every QI column."""
    config = EstimatorConfig(max_cells=400)
    if layout == "no-solo":
        solo_cells = FactoredPriorBackend(config).fit(wide_table)._count_storage.size
        monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", solo_cells - 1)
    backend = FactoredPriorBackend(config).fit(wide_table)
    assert (backend.solo is None) == (layout == "no-solo")
    assert backend._solo_of_row.base is None
    assert backend._solo_of_row.flags.c_contiguous
    owned = _expanded(backend, [per_attribute_bandwidth])[0]

    def solo_view(self, codes):
        if self._solo_index is None:
            return np.zeros(codes.shape[0], dtype=np.int64)
        return codes[:, self._solo_index]

    # The copy changes no bit of the priors a view gives.
    monkeypatch.setattr(FactoredPriorBackend, "_solo_codes", solo_view)
    viewed = FactoredPriorBackend(config).fit(wide_table)
    assert np.array_equal(_expanded(viewed, [per_attribute_bandwidth])[0], owned)


def test_append_growth_past_block_budget_reblocks():
    """A multi-attribute block outgrowing max_cells triggers a re-blocking refit."""
    schema = Schema(
        [numeric_qi("A"), categorical_qi("B"), categorical_qi("C"), sensitive("S")]
    )
    table = MicrodataTable.from_columns(
        schema,
        {
            # Observed (B, C) combos: (p,x), (q,x), (p,y) - 3 of the 4 possible.
            "A": [float(v) for v in range(12)],
            "B": ["p", "q", "p"] * 4,
            "C": ["x", "x", "y"] * 4,
            "S": ["s1", "s2"] * 6,
        },
    )
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=9), incremental=True)
    backend.fit(table)
    assert backend.solo == "A"
    assert backend.blocks == (("B", "C"),)  # c=3, 3^2 <= 9: one block
    backend.prior_rows([0.4])
    # The fourth combo (q, y) pushes the block to c=4 (16 > 9): refit re-blocks.
    grown = table.extend({"A": [3.0], "B": ["q"], "C": ["y"], "S": ["s1"]})
    assert backend.append_rows(grown) == "refit"
    assert backend.solo == "A"
    assert backend.blocks == (("B",), ("C",))
    np.testing.assert_allclose(
        _expanded(backend, [0.4])[0], flat_kernel_prior(grown, 0.4), atol=1e-12, rtol=0
    )


def test_append_growth_past_count_guard_refits(monkeypatch):
    full = _wide_table(n_rows=300)
    seed_table = full.select(np.arange(200))
    m = full.sensitive_domain().size
    # Probe the seed's exact count-tensor size, then pin the guard to it so
    # the fit succeeds but any slot growth breaches the guard.
    probe = FactoredPriorBackend(EstimatorConfig(max_cells=400)).fit(seed_table)
    threshold = probe._count_storage.shape[0] * probe._n_combos * m
    monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", threshold)
    config = EstimatorConfig(max_cells=400)
    backend = FactoredPriorBackend(config, incremental=True).fit(seed_table)
    assert backend.solo is not None
    backend.prior_rows([0.3])
    # The growth refits once into the no-solo layout; every later delta
    # stays incremental there.
    grown = full.select(np.arange(260))
    assert backend.append_rows(grown) == "refit"
    assert backend.solo is None
    kept = np.setdiff1d(np.arange(full.n_rows), [3, 150, 270])
    shrunk = full.select(kept)
    positions = np.asarray([0, 100])
    # Rows 0 and 100 swap values: an in-domain correction.
    codes = {name: shrunk.codes(name).copy() for name in shrunk.schema.names}
    for column in codes.values():
        column[positions] = column[positions[::-1]]
    domains = {name: shrunk.domain(name) for name in shrunk.schema.names}
    corrected = MicrodataTable.from_codes(shrunk.schema, codes, domains)
    steps = [
        (lambda: backend.append_rows(full), full),
        (lambda: backend.remove_rows(shrunk, np.asarray([3, 150, 270])), shrunk),
        (lambda: backend.update_rows(corrected, positions), corrected),
    ]
    for step, table in steps:
        assert step() == "incremental"
        assert backend.solo is None
        scratch = _expanded(FactoredPriorBackend(config).fit(table), [0.3])[0]
        np.testing.assert_allclose(_expanded(backend, [0.3])[0], scratch, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            _expanded(backend, [0.3])[0], flat_kernel_prior(table, 0.3), atol=1e-12, rtol=0
        )


def test_backend_requires_fit():
    backend = FactoredPriorBackend()
    with pytest.raises(KnowledgeError, match="not fitted"):
        backend.prior_rows([0.3])
    with pytest.raises(KnowledgeError, match="not fitted"):
        backend.append_rows(_wide_table(n_rows=20))
