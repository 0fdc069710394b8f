"""Append-only updates of the batched kernel prior estimator."""

import numpy as np
import pytest

from repro.data.adult import generate_adult
from repro.data.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.prior import BatchedKernelPriorEstimator, kernel_prior

BANDWIDTHS = [0.1, 0.3, 0.5]


def _grown_tables(total_rows=900, seed_rows=600, step=100):
    full = generate_adult(total_rows, seed=11)
    tables = [full.select(np.arange(seed_rows))]
    for stop in range(seed_rows + step, total_rows + 1, step):
        tables.append(full.select(np.arange(stop)))
    return tables


@pytest.mark.parametrize("incremental", [False, True])
def test_append_rows_matches_scratch_fit(incremental):
    tables = _grown_tables()
    estimator = BatchedKernelPriorEstimator(incremental=incremental)
    estimator.fit(tables[0])
    estimator.prior_for_table(BANDWIDTHS)  # populate any caches
    assert estimator.mode == "factored"
    for grown in tables[1:]:
        mode = estimator.append_rows(grown)
        assert mode == "incremental"
        updated = estimator.prior_for_table(BANDWIDTHS)
        scratch = BatchedKernelPriorEstimator().fit(grown).prior_for_table(BANDWIDTHS)
        for a, b in zip(updated, scratch):
            assert a.matrix.shape == b.matrix.shape
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12, rtol=0)


def test_append_rows_keeps_far_priors_bitwise_unchanged():
    """Compact-support kernels: rows far from every appended row keep their
    exact prior - the invariant the publisher's dirty tracking relies on."""
    tables = _grown_tables()
    estimator = BatchedKernelPriorEstimator(incremental=True)
    estimator.fit(tables[0])
    before = estimator.prior_for_table([0.1])[0].matrix
    estimator.append_rows(tables[1])
    after = estimator.prior_for_table([0.1])[0].matrix
    n_previous = before.shape[0]
    unchanged = (after[:n_previous] == before).all(axis=1)
    # Some priors must move (the batch is in-distribution) and, at b=0.1,
    # many rows are outside every appended row's kernel support.
    assert 0 < unchanged.sum() < n_previous


def test_append_rows_with_new_domain_values_refits():
    tables = _grown_tables(total_rows=700, seed_rows=600, step=100)
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(tables[0])
    estimator.prior_for_table([0.3])
    # A grown table with an unseen Age value gets fresh domains -> refit.
    grown = tables[1]
    columns = {name: grown.column(name).copy() for name in grown.schema.names}
    columns["Age"][-1] = 123.0
    rebuilt = MicrodataTable(grown.schema, columns)
    assert estimator.append_rows(rebuilt) == "refit"
    scratch = BatchedKernelPriorEstimator().fit(rebuilt)
    np.testing.assert_allclose(
        estimator.prior_for_table([0.3])[0].matrix,
        scratch.prior_for_table([0.3])[0].matrix,
        atol=1e-12,
        rtol=0,
    )


def test_append_rows_flat_reference_mode_refits():
    """The flat reference (max_cells=0) has no incremental state: it refits."""
    tables = _grown_tables(total_rows=700, seed_rows=600, step=100)
    flat = EstimatorConfig(max_cells=0)
    estimator = BatchedKernelPriorEstimator(flat, incremental=True).fit(tables[0])
    assert estimator.mode == "flat"
    assert estimator.append_rows(tables[1]) == "refit"
    np.testing.assert_allclose(
        estimator.prior_for_table([0.3])[0].matrix,
        BatchedKernelPriorEstimator().fit(tables[1]).prior_for_table([0.3])[0].matrix,
        atol=1e-12,
        rtol=0,
    )


def test_append_rows_single_qi_table_stays_factored():
    """A lone quasi-identifier no longer forces the flat sweep (zero rest blocks)."""
    schema = Schema(
        [
            Attribute("Age", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("Disease", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE),
        ]
    )
    table = MicrodataTable.from_columns(
        schema, {"Age": [30.0, 40.0, 50.0], "Disease": ["a", "b", "a"]}
    )
    estimator = BatchedKernelPriorEstimator(incremental=True).fit(table)
    assert estimator.mode == "factored"
    assert estimator.blocks == ()
    grown = table.extend({"Age": [40.0], "Disease": ["b"]})
    assert estimator.append_rows(grown) == "incremental"
    np.testing.assert_allclose(
        estimator.prior_for_table([0.3])[0].matrix,
        kernel_prior(grown, 0.3, config=EstimatorConfig(max_cells=0)).matrix,
        atol=1e-12,
        rtol=0,
    )


def test_append_rows_rejects_shrunken_tables():
    tables = _grown_tables(total_rows=700, seed_rows=600, step=100)
    estimator = BatchedKernelPriorEstimator().fit(tables[1])
    with pytest.raises(KnowledgeError):
        estimator.append_rows(tables[0])


def test_append_rows_requires_fit():
    with pytest.raises(KnowledgeError):
        BatchedKernelPriorEstimator().append_rows(generate_adult(50, seed=1))
