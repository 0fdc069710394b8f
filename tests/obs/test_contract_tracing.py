"""What the contraction spans say about the work they did.

``backend.contract`` records which path ran (``"support"`` - the summed
support terms of compact-support kernels - or ``"dense"``, the GEMM over
full joint rows) and ``terms``, the number of joint terms summed;
``backend.block_joint`` records ``nnz``, the kernel-positive entries its
block joint stores.  The numbers must be the same at any thread count.
"""

import numpy as np
import pytest

from repro.data.distance import attribute_distance_matrix
from repro.data.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.kernels import get_kernel
from repro.obs.tracing import Tracer


def _table(n=400, seed=3):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Attribute("A", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("B", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("C", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("S", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE),
        ]
    )
    columns = {
        "A": rng.integers(0, 30, n).astype(float),
        "B": rng.integers(0, 20, n).astype(float),
        "C": rng.choice(list("pqr"), n),
        "S": rng.choice(["flu", "cold", "hiv", "ok"], n),
    }
    return MicrodataTable(schema, columns)


def _traced(backend, bandwidth):
    """The contraction span and its block spans' ``nnz`` by block (threaded
    block builds may finish in any order)."""
    tracer = Tracer()
    with tracer.activate(), tracer.timed("run"):
        backend.prior_rows([bandwidth])
    root = tracer.take_root()
    contract = root.find("backend.contract")
    blocks = {
        tuple(span.attributes["names"]): span.attributes["nnz"]
        for span in contract.walk()
        if span.name == "backend.block_joint"
    }
    return contract, blocks


def _expected(backend, kernel, bandwidth):
    """Per-block positive-entry counts and the summed terms, computed densely."""
    table = backend.table
    rest = [table.quasi_identifier_names[i] for i in backend._rest_indices]
    combos = backend._rest_combos[: backend._n_combos]
    function = get_kernel(kernel)
    block_nnz = {}
    chained = np.ones((backend._n_combos, backend._n_combos), dtype=bool)
    for names in backend.blocks:
        block_combos = np.unique(combos[:, [rest.index(name) for name in names]], axis=0)
        positive = np.ones((len(block_combos),) * 2, dtype=bool)
        for offset, name in enumerate(names):
            weights = function(attribute_distance_matrix(table.domain(name)), bandwidth)
            column = block_combos[:, offset]
            positive &= weights[column][:, column] > 0.0
            slot_column = combos[:, rest.index(name)]
            chained &= weights[slot_column][:, slot_column] > 0.0
        block_nnz[tuple(names)] = int(positive.sum())
    terms = int(chained.sum(axis=1)[backend._query_rest].sum())
    return block_nnz, terms


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("max_cells", [10**6, 100])
def test_support_path_records_terms_and_block_nnz(jobs, max_cells):
    """One (B, C) block, or B and C split - C's 3 x 3 diagonal is dense."""
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=max_cells, jobs=jobs)).fit(_table())
    contract, blocks = _traced(backend, 0.1)
    block_nnz, terms = _expected(backend, "epanechnikov", 0.1)
    assert contract.attributes["path"] == "support"
    assert contract.attributes["terms"] == terms
    assert int(contract.attributes["queries"]) < terms  # B's neighbours add terms
    assert blocks == block_nnz
    assert len(blocks) == backend.n_blocks


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize(("kernel", "bandwidth"), [("gaussian", 0.3), ("uniform", 1.0)])
def test_dense_path_records_full_rows(jobs, kernel, bandwidth):
    """An unbounded kernel, or a support filling the whole joint, runs dense."""
    backend = FactoredPriorBackend(EstimatorConfig(kernel=kernel, jobs=jobs)).fit(_table())
    contract, blocks = _traced(backend, bandwidth)
    block_nnz, _ = _expected(backend, kernel, bandwidth)
    assert contract.attributes["path"] == "dense"
    queries = int(contract.attributes["queries"])
    assert contract.attributes["terms"] == queries * backend._n_combos
    assert blocks == block_nnz
