"""Full-lifecycle backend deltas: remove_rows / update_rows equivalence.

The contract under test: after retracting or correcting rows, the maintained
factored state produces priors that match a from-scratch fit of the
post-batch table to ``<= 1e-12`` (the incremental paths are in fact exact:
count deltas are integer arithmetic in float64 and affected queries are
fully recontracted), for every kernel, with per-attribute bandwidths, and
across the retired-slot refit guard.
"""

import numpy as np
import pytest

from repro.data.adult import generate_adult
from repro.data.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
import repro.knowledge.backend as backend_module
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import BatchedKernelPriorEstimator

BANDWIDTHS = [0.1, 0.3, 0.5]


def _dense_table(n=400, seed=3):
    """A table whose rest combinations repeat heavily (no singleton slots)."""
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


def _scratch(table, bandwidths, **options):
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(**options))
    return estimator.fit(table).prior_for_table(bandwidths)


def _max_difference(maintained, reference):
    return max(
        float(np.abs(a.matrix - b.matrix).max()) for a, b in zip(maintained, reference)
    )


def _replace(table, positions, donor_positions, sensitive_only=False):
    """An in-domain correction: rows at ``positions`` copy donor rows."""
    columns = {name: table.column(name).copy() for name in table.schema.names}
    names = [table.sensitive_name] if sensitive_only else list(table.schema.names)
    for name in names:
        columns[name][positions] = table.column(name)[donor_positions]
    domains = {name: table.domain(name) for name in table.schema.names}
    return MicrodataTable(table.schema, columns, domains=domains)


@pytest.mark.parametrize("kernel", ["epanechnikov", "triangular", "uniform"])
def test_remove_rows_matches_scratch_fit(kernel):
    table = _dense_table()
    estimator = BatchedKernelPriorEstimator(
        EstimatorConfig(kernel=kernel), incremental=True
    ).fit(table)
    estimator.prior_for_table(BANDWIDTHS)  # populate the contraction caches
    rng = np.random.default_rng(11)
    removed = np.sort(rng.choice(table.n_rows, size=35, replace=False))
    shrunk = table.select(np.setdiff1d(np.arange(table.n_rows), removed))
    mode = estimator.remove_rows(shrunk, removed)
    assert mode == "incremental"
    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(shrunk, BANDWIDTHS, kernel=kernel)
    )
    assert difference <= 1e-12


@pytest.mark.parametrize("sensitive_only", [True, False], ids=["sensitive", "full-row"])
def test_update_rows_matches_scratch_fit(sensitive_only):
    table = _dense_table(seed=5)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    estimator.prior_for_table(BANDWIDTHS)
    rng = np.random.default_rng(13)
    positions = np.sort(rng.choice(table.n_rows, size=30, replace=False))
    donors = rng.integers(0, table.n_rows, size=30)
    updated = _replace(table, positions, donors, sensitive_only=sensitive_only)
    mode = estimator.update_rows(updated, positions)
    assert mode == "incremental"
    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(updated, BANDWIDTHS)
    )
    assert difference <= 1e-12


def test_per_attribute_bandwidths_survive_lifecycle():
    table = _dense_table(seed=7)
    names = table.quasi_identifier_names
    bandwidths = [
        Bandwidth({names[0]: 0.1, names[1]: 0.4, names[2]: 0.2}),
        Bandwidth({names[0]: 0.3, names[1]: 0.1, names[2]: 0.5}),
    ]
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    estimator.prior_for_table(bandwidths)
    rng = np.random.default_rng(17)
    removed = np.sort(rng.choice(table.n_rows, size=25, replace=False))
    shrunk = table.select(np.setdiff1d(np.arange(table.n_rows), removed))
    assert estimator.remove_rows(shrunk, removed) == "incremental"
    positions = np.sort(rng.choice(shrunk.n_rows, size=20, replace=False))
    updated = _replace(shrunk, positions, rng.integers(0, shrunk.n_rows, size=20))
    assert estimator.update_rows(updated, positions) == "incremental"
    difference = _max_difference(
        estimator.prior_for_table(bandwidths), _scratch(updated, bandwidths)
    )
    assert difference <= 1e-12


def test_interleaved_lifecycle_stays_exact():
    """remove -> update -> append -> remove keeps matching scratch fits."""
    table = _dense_table(seed=9)
    extra = _dense_table(n=60, seed=10)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    estimator.prior_for_table(BANDWIDTHS)
    rng = np.random.default_rng(19)

    removed = np.sort(rng.choice(table.n_rows, size=30, replace=False))
    current = table.select(np.setdiff1d(np.arange(table.n_rows), removed))
    estimator.remove_rows(current, removed)

    positions = np.sort(rng.choice(current.n_rows, size=25, replace=False))
    current = _replace(current, positions, rng.integers(0, current.n_rows, size=25))
    estimator.update_rows(current, positions)

    current = current.extend({name: extra.column(name) for name in table.schema.names})
    estimator.append_rows(current)

    removed = np.sort(rng.choice(current.n_rows, size=20, replace=False))
    current = current.select(np.setdiff1d(np.arange(current.n_rows), removed))
    estimator.remove_rows(current, removed)

    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(current, BANDWIDTHS)
    )
    assert difference <= 1e-12


def test_retired_slot_guard_refits_and_stays_exact():
    """Adult-style singleton slots: removals retire slots exactly in place
    until the retired fraction breaches the guard, which forces a compact
    refit - and the priors match a scratch fit throughout."""
    table = generate_adult(600, seed=11)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    estimator.prior_for_table(BANDWIDTHS)
    rng = np.random.default_rng(23)
    modes = []
    current = table
    for _ in range(12):
        removed = np.sort(rng.choice(current.n_rows, size=40, replace=False))
        current = current.select(np.setdiff1d(np.arange(current.n_rows), removed))
        modes.append(estimator.remove_rows(current, removed))
        backend = estimator.backend
        retired = int(
            (backend._slot_totals[: backend._n_combos] == 0.0).sum()
        )
        assert retired <= max(16, backend._n_combos // 4 + 1)
    assert "incremental" in modes and "refit" in modes
    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(current, BANDWIDTHS)
    )
    assert difference <= 1e-12


def test_update_with_unseen_rest_combination_grows_slots():
    base = _dense_table(seed=21)
    # Suppress the (B='z', C='q') rest combination so a correction can
    # introduce it (domains still cover both values individually).
    columns = {name: base.column(name).copy() for name in base.schema.names}
    columns["C"][columns["B"] == "z"] = "p"
    table = MicrodataTable(base.schema, columns)
    assert not np.any((table.column("B") == "z") & (table.column("C") == "q"))
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    estimator.prior_for_table(BANDWIDTHS)
    combos_before = estimator.backend._n_combos

    corrected = {name: table.column(name).copy() for name in table.schema.names}
    corrected["B"][0], corrected["C"][0] = "z", "q"
    updated = MicrodataTable(
        table.schema, corrected, domains={n: table.domain(n) for n in table.schema.names}
    )
    mode = estimator.update_rows(updated, np.asarray([0]))
    assert mode == "incremental"
    assert estimator.backend._n_combos == combos_before + 1
    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(updated, BANDWIDTHS)
    )
    assert difference <= 1e-12


def test_no_solo_layout_removes_incrementally(monkeypatch):
    """Under a count guard below the solo layout, deltas stay incremental."""
    table = generate_adult(300, seed=25)
    solo_cells = FactoredPriorBackend().fit(table)._count_storage.size
    monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", solo_cells - 1)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    assert estimator.backend.solo is None
    estimator.prior_for_table(BANDWIDTHS)
    removed = np.asarray([0, 5, 9])
    shrunk = table.select(np.setdiff1d(np.arange(table.n_rows), removed))
    assert estimator.remove_rows(shrunk, removed) == "incremental"
    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(shrunk, BANDWIDTHS)
    )
    assert difference <= 1e-12


def test_lifecycle_validation_errors():
    table = _dense_table(seed=27)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    shrunk = table.select(np.arange(1, table.n_rows))
    with pytest.raises(KnowledgeError):
        estimator.remove_rows(shrunk, np.asarray([], dtype=np.int64))
    with pytest.raises(KnowledgeError):
        estimator.remove_rows(shrunk, np.asarray([table.n_rows]))
    with pytest.raises(KnowledgeError):
        estimator.remove_rows(shrunk, np.asarray([0, 1]))  # row-count mismatch
    with pytest.raises(KnowledgeError):
        estimator.remove_rows(table, np.arange(table.n_rows))  # remove everything
    with pytest.raises(KnowledgeError):
        estimator.update_rows(table, np.asarray([], dtype=np.int64))
    with pytest.raises(KnowledgeError):
        estimator.update_rows(table, np.asarray([-1]))
    with pytest.raises(KnowledgeError):
        estimator.update_rows(shrunk, np.asarray([0]))  # row-count mismatch


def test_spliced_carries_per_row_arrays_across_every_delta_shape():
    from repro.knowledge.backend import _spliced

    rows = np.arange(10, 20, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)

    def reference(removed, added, values):
        kept = [value for i, value in enumerate(rows) if i not in set(removed)]
        result = np.empty(len(kept) + len(added), dtype=np.int64)
        arriving = np.zeros(result.size, dtype=bool)
        arriving[added] = True
        result[~arriving] = kept
        result[added] = values
        return result

    shapes = [
        (none, np.arange(10, 13)),  # append
        (np.asarray([0, 4, 9]), none),  # retraction
        (np.asarray([2, 5]), np.asarray([2, 5])),  # correction
        (np.asarray([1, 2, 8]), np.asarray([0, 3, 9, 10])),  # net delta
        (none, none),
    ]
    for removed, added in shapes:
        values = 100 + np.arange(added.size, dtype=np.int64)
        spliced = _spliced(rows, removed, added, values)
        assert np.array_equal(spliced, reference(removed, added, values))
    assert rows.tolist() == list(range(10, 20))  # never written in place


def test_one_fold_of_a_net_delta_matches_a_scratch_fit():
    """The private step behind append/remove/update takes any row delta:
    retracting rows and inserting others mid-table in one fold matches a
    from-scratch fit of the result."""
    table = _dense_table(seed=21)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    estimator.prior_for_table(BANDWIDTHS)
    rng = np.random.default_rng(23)
    removed = np.sort(rng.choice(table.n_rows, size=25, replace=False))
    n_new = table.n_rows - removed.size + 15
    added = np.sort(rng.choice(n_new, size=15, replace=False))
    donors = rng.integers(0, table.n_rows, size=15)
    survivors = np.setdiff1d(np.arange(table.n_rows), removed)
    arriving = np.zeros(n_new, dtype=bool)
    arriving[added] = True
    codes = {}
    for name in table.schema.names:
        column = np.empty(n_new, dtype=table.codes(name).dtype)
        column[~arriving] = table.codes(name)[survivors]
        column[added] = table.codes(name)[donors]
        codes[name] = column
    domains = {name: table.domain(name) for name in table.schema.names}
    current = MicrodataTable.from_codes(table.schema, codes, domains)

    assert estimator.backend._fold_rows(current, removed, added) == "incremental"
    difference = _max_difference(
        estimator.prior_for_table(BANDWIDTHS), _scratch(current, BANDWIDTHS)
    )
    assert difference <= 1e-12
