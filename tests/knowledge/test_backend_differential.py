"""Seeded randomized differential harness: the backend vs the flat reference.

Every case draws a random schema of 1-5 quasi-identifiers (numeric and
categorical, small random domains), a random table, a random contraction
budget and a random per-attribute bandwidth, and runs it for every
registered kernel in both count-tensor layouts: the solo split, and the
no-solo layout, forced by pinning :data:`MAX_COUNT_CELLS` between the two
layouts' sizes.  The contracts:

* priors within ``1e-12`` of :func:`~repro.knowledge.prior.flat_kernel_prior`
  for a scalar and a per-attribute bandwidth;
* ``jobs=1`` and ``jobs=4`` bitwise equal;
* a chunked fit bitwise equal to the resident fit;
* ``matrix_for_codes`` on unseen QI combinations within ``1e-12`` of the
  reference;
* an incremental backend through append, delete and update within
  ``1e-12`` of a scratch fit.  Under the pinned guard the first append
  outgrows the solo layout and refits once; every later delta stays
  incremental in the no-solo layout.
"""

import numpy as np
import pytest

import repro.knowledge.backend as backend_module
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.source import InMemoryTableSource
from repro.data.table import MicrodataTable
from repro.knowledge.backend import DEFAULT_MAX_CELLS, EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import kernel_names
from repro.knowledge.prior import flat_kernel_prior

SEEDS = range(6)
TOLERANCE = 1e-12


def _count_cells(table: MicrodataTable, solo: bool) -> int:
    """The count tensor's cells in one layout (what ``_fit`` guards)."""
    codes = table.qi_code_matrix()
    m = table.sensitive_domain().size
    if not solo:
        return np.unique(codes, axis=0).shape[0] * m
    sizes = [table.domain(name).size for name in table.quasi_identifier_names]
    pivot = int(np.argmax(sizes))
    rest = np.delete(codes, pivot, axis=1)
    return sizes[pivot] * np.unique(rest, axis=0).shape[0] * m


def _random_case(seed: int, layout: str, monkeypatch):
    """A random 160-row table, a contraction budget and a bandwidth.

    The first 100 rows seed the lifecycle test and rows 100-130 its first
    append.  The no-solo layout pins the guard at the seed's solo tensor,
    which the first append's solo tensor must break and the whole table's
    no-solo tensor must fit; draws where it does not are redrawn.
    """
    rng = np.random.default_rng([2009, seed])
    while True:
        n_qi = int(rng.integers(1, 6))
        attributes, columns = [], {}
        for i in range(n_qi):
            size = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                attributes.append(numeric_qi(f"N{i}"))
                columns[f"N{i}"] = rng.integers(0, size, 160).astype(float)
            else:
                attributes.append(categorical_qi(f"C{i}"))
                columns[f"C{i}"] = rng.choice([f"v{j}" for j in range(size)], 160)
        attributes.append(sensitive("S"))
        columns["S"] = rng.choice(["a", "b", "c", "d"][: int(rng.integers(2, 5))], 160)
        table = MicrodataTable.from_columns(Schema(attributes), columns)
        if layout == "no-solo":
            guard = _count_cells(table.select(np.arange(100)), solo=True)
            if not (
                _count_cells(table, solo=False)
                <= guard
                < _count_cells(table.select(np.arange(130)), solo=True)
            ):
                continue
            monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", guard)
        budget = int(rng.choice([1_000, 3_000, DEFAULT_MAX_CELLS]))
        bandwidth = Bandwidth(
            {name: float(rng.uniform(0.05, 0.8)) for name in table.quasi_identifier_names}
        )
        return table, budget, bandwidth


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", ["solo", "no-solo"])
def test_backend_matches_the_flat_reference(layout, seed, kernel, monkeypatch):
    table, budget, per_attribute = _random_case(seed, layout, monkeypatch)
    config = EstimatorConfig(kernel=kernel, max_cells=budget)
    bandwidths = [0.3, per_attribute]

    backend = FactoredPriorBackend(config).fit(table)
    assert (backend.solo is None) == (layout == "no-solo")
    matrices = backend.matrices(bandwidths)
    for b, matrix in zip(bandwidths, matrices):
        reference = flat_kernel_prior(table, b, kernel=kernel)
        np.testing.assert_allclose(matrix, reference, atol=TOLERANCE, rtol=0)

    for jobs in (1, 4):
        threaded = EstimatorConfig(kernel=kernel, max_cells=budget, jobs=jobs)
        for ours, resident in zip(
            FactoredPriorBackend(threaded).fit(table).matrices(bandwidths), matrices
        ):
            assert ours.tobytes() == resident.tobytes()
    chunked = FactoredPriorBackend(config).fit(InMemoryTableSource(table, chunk_rows=7))
    assert chunked.solo == backend.solo
    for ours, resident in zip(chunked.matrices(bandwidths), matrices):
        assert ours.tobytes() == resident.tobytes()

    rng = np.random.default_rng([seed, 7])
    sizes = [table.domain(name).size for name in table.quasi_identifier_names]
    queries = np.column_stack([rng.integers(0, size, 60) for size in sizes])
    np.testing.assert_allclose(
        backend.matrix_for_codes(queries, per_attribute),
        flat_kernel_prior(table, per_attribute, kernel=kernel, query_codes=queries),
        atol=TOLERANCE,
        rtol=0,
    )


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", ["solo", "no-solo"])
def test_lifecycle_matches_a_scratch_fit(layout, seed, kernel, monkeypatch):
    table, budget, per_attribute = _random_case(seed, layout, monkeypatch)
    config = EstimatorConfig(kernel=kernel, max_cells=budget)
    bandwidths = [0.3, per_attribute]
    backend = FactoredPriorBackend(config, incremental=True).fit(table.select(np.arange(100)))
    assert backend.solo is not None
    backend.matrices(bandwidths)  # populate the contraction caches

    rng = np.random.default_rng([seed, 11])
    kept = np.setdiff1d(np.arange(160), rng.choice(160, 9, replace=False))
    shrunk = table.select(kept)
    positions = np.sort(rng.choice(kept.size, 6, replace=False))
    codes = {name: shrunk.codes(name).copy() for name in table.schema.names}
    donors = rng.integers(0, kept.size, positions.size)
    for column in codes.values():
        column[positions] = column[donors]
    domains = {name: table.domain(name) for name in table.schema.names}
    corrected = MicrodataTable.from_codes(table.schema, codes, domains)

    grown = table.select(np.arange(130))
    steps = [
        (lambda: backend.append_rows(grown), grown),
        (lambda: backend.append_rows(table), table),
        (lambda: backend.remove_rows(shrunk, np.setdiff1d(np.arange(160), kept)), shrunk),
        (lambda: backend.update_rows(corrected, positions), corrected),
    ]
    results = []
    for step, current in steps:
        results.append(step())
        scratch = FactoredPriorBackend(config).fit(current)
        assert backend.solo == scratch.solo
        for ours, reference in zip(backend.matrices(bandwidths), scratch.matrices(bandwidths)):
            np.testing.assert_allclose(ours, reference, atol=TOLERANCE, rtol=0)
    if layout == "no-solo":
        assert results == ["refit", "incremental", "incremental", "incremental"]
        assert backend.solo is None
    else:
        assert results == ["incremental"] * 4
