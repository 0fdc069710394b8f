"""Chunked (out-of-core) prior fits are bitwise identical to resident fits.

The tentpole contract of the TableSource ingestion layer: feeding
:meth:`FactoredPriorBackend.fit` a chunk stream - first chunk through the
ordinary fit, later chunks through the exact ``append_rows`` deltas, one
final slot canonicalisation - produces the *same bits* as fitting the fully
resident table, for every kernel, for the blocked wide-schema mode, and for
any chunk size.  ``<= 1e-12`` is not good enough here: the streamed fit must
be indistinguishable so that chunked publications and audits are exactly
the resident ones.

The subprocess harness at the bottom then pins the point of the exercise:
the chunked 100k-row fit stays under the peak RSS the in-RAM pipeline
spends on the same data.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.source import InMemoryTableSource, NpzTableSource, write_npz
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
import repro.knowledge.backend as backend_module
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import kernel_names
from repro.knowledge.prior import BatchedKernelPriorEstimator, kernel_prior

ROWS = 900


def _wide_table(n_rows: int = 420, n_attributes: int = 12, seed: int = 3):
    """The blocked-mode regime (mirrors tests/knowledge/test_backend.py)."""
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
def table():
    return generate_adult(ROWS, seed=11)


@pytest.fixture(scope="module")
def npz_path(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "adult.npz"
    write_npz(path, table)
    return path


def _npz_source(path, chunk_rows: int) -> NpzTableSource:
    """The npz table, streamed ``chunk_rows`` rows at a time."""
    return NpzTableSource(path, adult_schema(), chunk_rows=chunk_rows)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel", kernel_names())
def test_chunked_fit_matches_resident_fit_bitwise_every_kernel(
    table, npz_path, kernel
):
    resident = kernel_prior(table, 0.3, config=EstimatorConfig(kernel=kernel)).matrix
    chunked = kernel_prior(
        _npz_source(npz_path, 128), 0.3, config=EstimatorConfig(kernel=kernel)
    ).matrix
    assert _bitwise_equal(chunked, resident)


@pytest.mark.parametrize("chunk_rows", [1, 7, 128, ROWS, ROWS + 50])
def test_chunked_fit_is_chunk_size_invariant(table, npz_path, chunk_rows):
    resident = kernel_prior(table, 0.25).matrix
    chunked = kernel_prior(_npz_source(npz_path, chunk_rows), 0.25).matrix
    assert _bitwise_equal(chunked, resident)


def test_chunked_fit_matches_on_blocked_wide_schema():
    """The blocked (wide-schema) mode streams bitwise too."""
    wide = _wide_table(n_rows=420)
    bandwidth = Bandwidth(
        {name: 0.15 + 0.05 * (i % 5) for i, name in enumerate(wide.quasi_identifier_names)}
    )
    config = EstimatorConfig(max_cells=600)
    resident_backend = FactoredPriorBackend(config).fit(wide)
    assert len(resident_backend.blocks) > 1  # really the blocked regime
    resident = BatchedKernelPriorEstimator(config=config)
    resident.fit(wide)
    chunked = BatchedKernelPriorEstimator(config=config)
    chunked.fit(InMemoryTableSource(wide, chunk_rows=64))
    a = resident.prior_for_table([bandwidth])[0].matrix
    b = chunked.prior_for_table([bandwidth])[0].matrix
    assert _bitwise_equal(b, a)


@pytest.mark.parametrize("chunk_rows", [1, 7, 500])
def test_no_solo_layout_streams_bitwise(table, monkeypatch, chunk_rows):
    """A count guard between the two layouts: the growing chunked fit trips
    it mid-stream, refits the partial table without the solo split, keeps
    folding, and ends bitwise equal to the resident no-solo fit."""
    small = table.select(np.arange(300))
    solo_cells = FactoredPriorBackend().fit(small)._count_storage.size
    monkeypatch.setattr(backend_module, "MAX_COUNT_CELLS", solo_cells - 1)
    resident = FactoredPriorBackend().fit(small)
    chunked = FactoredPriorBackend().fit(InMemoryTableSource(small, chunk_rows=chunk_rows))
    assert resident.solo is None and chunked.solo is None
    for a, b in zip(resident.matrices([0.1, 0.3]), chunked.matrices([0.1, 0.3])):
        assert _bitwise_equal(b, a)


def test_source_row_count_mismatch_raises(table):
    class TruncatedSource(InMemoryTableSource):
        """Declares the full row count but stops after one chunk."""

        def iter_chunks(self, chunk_rows=None):
            yield next(super().iter_chunks(chunk_rows=chunk_rows))

    with pytest.raises(KnowledgeError, match="declared"):
        FactoredPriorBackend().fit(TruncatedSource(table, chunk_rows=100))


# -- the peak-RSS harness -------------------------------------------------------------
#
# Both children fit the same 100k-row table (bandwidth 0.3) and report their
# lifetime ru_maxrss; the resident child first *builds* the table in RAM (the
# raw-value columns the pre-TableSource pipeline had to hold), the chunked
# child memory-maps the npz and streams 8k-row chunks.  The ceiling the
# chunked fit must stay under is exactly the resident child's footprint.

HARNESS_ROWS = int(os.environ.get("REPRO_TEST_RSS_ROWS", "100000"))
HARNESS_CHUNK = 8192
_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_harness_child(role: str, npz_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        _SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else _SRC
    )
    completed = subprocess.run(
        [sys.executable, __file__, role, str(npz_path), str(HARNESS_ROWS)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, f"{role} child failed:\n{completed.stderr}"
    return json.loads(completed.stdout.splitlines()[-1])


def _child_peak_rss_mb() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def _child(role: str, npz_path: str, rows: int) -> dict:
    if role == "prepare":
        write_npz(npz_path, generate_adult(rows, seed=4))
        return {"rows": rows}
    if role == "resident":
        resident_table = generate_adult(rows, seed=4)
        matrix = kernel_prior(resident_table, 0.3).matrix
    else:
        matrix = kernel_prior(_npz_source(npz_path, HARNESS_CHUNK), 0.3).matrix
    return {
        "peak_rss_mb": _child_peak_rss_mb(),
        "checksum": float(matrix.sum()),
        "shape": list(matrix.shape),
    }


def test_chunked_fit_stays_under_the_resident_footprint(tmp_path):
    npz_path = tmp_path / f"adult-{HARNESS_ROWS}.npz"
    _run_harness_child("prepare", npz_path)
    chunked = _run_harness_child("chunked", npz_path)
    resident = _run_harness_child("resident", npz_path)
    assert chunked["shape"] == resident["shape"]
    assert chunked["checksum"] == resident["checksum"]  # same bits, same sum
    ceiling = resident["peak_rss_mb"]
    assert chunked["peak_rss_mb"] < ceiling, (
        f"chunked fit peaked at {chunked['peak_rss_mb']:.0f} MB, not under the "
        f"resident pipeline's {ceiling:.0f} MB"
    )


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1], sys.argv[2], int(sys.argv[3]))))
