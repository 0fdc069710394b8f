"""Property test: integer row keys reproduce ``np.unique(..., axis=0)`` bit for bit.

:func:`~repro.knowledge.backend.unique_rows` replaces NumPy's structured-row
sort wherever the backend deduplicates QI code rows.  The slot layout, the
block layout and the contraction's summation order all follow its order, so
its distinct rows and inverse must equal the structured reference exactly -
for any width, row count, integer dtype and duplication level, and for
schemas whose radix product passes ``2**63`` (where the key is re-ranked).
"""

import numpy as np
import pytest

from repro.knowledge.backend import unique_rows


def _assert_matches_reference(rows: np.ndarray) -> None:
    expected_rows, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
    ours_rows, ours_inverse = unique_rows(rows)
    assert ours_rows.dtype == expected_rows.dtype
    assert ours_rows.shape == expected_rows.shape
    assert ours_rows.tobytes() == expected_rows.tobytes()
    assert ours_inverse.dtype == np.int64
    assert ours_inverse.shape == (rows.shape[0],)
    assert ours_inverse.tobytes() == expected_inverse.reshape(-1).tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n_rows", [0, 1, 2_000])
@pytest.mark.parametrize("width", range(9))
def test_random_code_matrices_match_the_structured_sort(width, n_rows, dtype):
    rng = np.random.default_rng([width, n_rows, np.dtype(dtype).itemsize])
    rows = np.zeros((n_rows, width), dtype=dtype)
    for column, size in enumerate(rng.integers(1, 40, width)):
        rows[:, column] = rng.integers(0, size, n_rows)
    _assert_matches_reference(rows)


@pytest.mark.parametrize("seed", range(4))
def test_heavy_duplication(seed):
    rng = np.random.default_rng(seed)
    distinct = rng.integers(0, 7, (5, 4))
    rows = distinct[rng.integers(0, 5, 2_000)].astype(np.int32)
    _assert_matches_reference(rows)
    assert unique_rows(rows)[0].shape[0] <= 5


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_radix_product_past_int64_re_keys(dtype):
    # Eight columns of cardinality 2**12: the radix product is 2**96, so
    # the key is re-ranked before the sixth column folds in.
    rng = np.random.default_rng(63)
    rows = rng.integers(0, 1 << 12, (2_000, 8)).astype(dtype)
    rows[0] = (1 << 12) - 1  # pin every radix at 2**12
    rows[500:] = rows[rng.integers(0, 500, 1_500)]
    rows[::97, :5] = 7  # ties on the re-ranked prefix, broken by later columns
    _assert_matches_reference(rows)


@pytest.mark.parametrize("bad", [-1, 1 << 31])
def test_codes_outside_the_key_range_are_refused(bad):
    rows = np.zeros((3, 2), dtype=np.int64)
    rows[1, 1] = bad
    with pytest.raises(ValueError):
        unique_rows(rows)
