"""Batched-vs-legacy equivalence for the vectorised posterior kernel.

``posterior_for_groups`` used to loop group by group; it now runs one flat
pass over a group-id vector.  These property-style tests pin the new kernel to
the per-group reference (``omega_posterior`` / ``exact_posterior`` applied to
each group) on randomized tables, covering empty groups, uncovered tuples
and degenerate priors.  Tiles that split groups are covered by
``tests/privacy/test_risk_kernel.py``.
"""

import numpy as np
import pytest

from repro.exceptions import InferenceError
from repro.inference.exact import exact_posterior, group_sensitive_counts
from repro.inference.omega import grouped_posterior, omega_posterior, posterior_for_groups


def _random_problem(rng, *, zero_mass: float = 0.0):
    """A random prior/codes/groups triple (optionally with zeroed-out priors)."""
    n = int(rng.integers(1, 60))
    m = int(rng.integers(2, 8))
    prior = rng.random((n, m))
    if zero_mass > 0.0:
        prior[rng.random((n, m)) < zero_mass] = 0.0
        dead = prior.sum(axis=1) <= 0.0
        prior[dead] = 1.0
    prior /= prior.sum(axis=1, keepdims=True)
    codes = rng.integers(0, m, n)
    covered = rng.permutation(n)[: int(rng.integers(0, n + 1))]
    groups, position = [], 0
    while position < len(covered):
        size = int(rng.integers(1, 9))
        groups.append(covered[position : position + size])
        position += size
    groups.insert(0, np.array([], dtype=np.int64))  # empty groups are skipped
    return prior, codes, groups


def _reference(prior, codes, groups, method):
    posterior = prior.copy()
    for group in groups:
        if len(group) == 0:
            continue
        counts = group_sensitive_counts(codes[group], prior.shape[1])
        if method == "omega":
            posterior[group] = omega_posterior(prior[group], counts)
        else:
            posterior[group] = exact_posterior(prior[group], counts)
    return posterior


@pytest.mark.parametrize("method", ["omega", "exact"])
@pytest.mark.parametrize("zero_mass", [0.0, 0.35])
def test_batched_matches_per_group_loop(method, zero_mass):
    rng = np.random.default_rng(20090415)
    for _ in range(25):
        prior, codes, groups = _random_problem(rng, zero_mass=zero_mass)
        try:
            reference = _reference(prior, codes, groups, method)
        except InferenceError:
            # Inconsistent priors must be rejected by the batched path too.
            with pytest.raises(InferenceError):
                posterior_for_groups(prior, codes, groups, method=method)
            continue
        batched = posterior_for_groups(prior, codes, groups, method=method)
        np.testing.assert_allclose(batched, reference, atol=1e-9)


def test_uncovered_tuples_keep_their_prior():
    rng = np.random.default_rng(3)
    prior = rng.random((10, 4))
    prior /= prior.sum(axis=1, keepdims=True)
    codes = rng.integers(0, 4, 10)
    groups = [np.array([1, 4, 7])]
    posterior = posterior_for_groups(prior, codes, groups)
    untouched = [i for i in range(10) if i not in {1, 4, 7}]
    np.testing.assert_array_equal(posterior[untouched], prior[untouched])


def test_all_groups_empty_returns_prior_copy():
    prior = np.full((5, 2), 0.5)
    posterior = posterior_for_groups(prior, np.zeros(5, dtype=int), [np.array([], dtype=int)])
    np.testing.assert_array_equal(posterior, prior)
    assert posterior is not prior


def test_overlapping_groups_rejected():
    prior = np.full((6, 2), 0.5)
    codes = np.zeros(6, dtype=int)
    groups = [np.array([0, 1]), np.array([2, 3]), np.array([3, 4])]
    with pytest.raises(InferenceError, match="overlap"):
        posterior_for_groups(prior, codes, groups)


def test_out_of_range_group_index_rejected():
    prior = np.full((4, 2), 0.5)
    with pytest.raises(InferenceError, match="out of range"):
        posterior_for_groups(prior, np.zeros(4, dtype=int), [np.array([0, 7])])


def test_grouped_posterior_validates_offsets():
    prior = np.full((4, 2), 0.5)
    codes = np.zeros(4, dtype=int)
    with pytest.raises(InferenceError, match="offsets"):
        grouped_posterior(prior, codes, np.array([1, 2]))
    with pytest.raises(InferenceError, match="offsets"):
        grouped_posterior(prior, codes, np.array([0, 2, 2]))


def test_grouped_posterior_allows_overlapping_candidate_groups():
    # Mondrian evaluates alternative candidate splits of the same parent;
    # the flat kernel must treat each laid-out group independently.
    rng = np.random.default_rng(9)
    prior = rng.random((8, 3))
    prior /= prior.sum(axis=1, keepdims=True)
    codes = rng.integers(0, 3, 8)
    left = np.array([0, 1, 2, 3])
    right = np.array([2, 3, 4, 5])  # overlaps left
    rows = np.concatenate([left, right])
    flat = grouped_posterior(prior[rows], codes[rows], np.array([0, 4]))
    for group, segment in ((left, flat[:4]), (right, flat[4:])):
        counts = group_sensitive_counts(codes[group], 3)
        np.testing.assert_allclose(segment, omega_posterior(prior[group], counts), atol=1e-12)


def test_out_of_range_sensitive_code_rejected():
    # The flat kernel buckets counts by group_id * m + code; an out-of-range
    # code must raise (as the legacy per-group path did), never bleed into a
    # neighbouring group's count bins.
    prior = np.full((4, 2), 0.5)
    codes = np.array([0, 2, 0, 1])  # 2 is out of range for m=2
    with pytest.raises(InferenceError, match="out of range"):
        grouped_posterior(prior, codes, np.array([0, 2]))
    with pytest.raises(InferenceError, match="out of range"):
        posterior_for_groups(prior, codes, [np.array([0, 1]), np.array([2, 3])])
