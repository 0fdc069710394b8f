"""Tests for the Omega-estimate (Section III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InferenceError
from repro.inference.exact import exact_posterior
from repro.inference.omega import group_pass, omega_posterior, posterior_for_groups


def test_rows_are_distributions():
    rng = np.random.default_rng(0)
    prior = rng.dirichlet(np.ones(5), size=6)
    counts = np.array([2, 1, 3, 0, 0])
    posterior = omega_posterior(prior, counts)
    assert np.allclose(posterior.sum(axis=1), 1.0)
    assert posterior.min() >= 0.0
    assert np.allclose(posterior[:, 3:], 0.0)


def test_uniform_prior_gives_group_frequencies():
    prior = np.full((4, 3), 1.0 / 3.0)
    counts = np.array([2, 1, 1])
    posterior = omega_posterior(prior, counts)
    assert np.allclose(posterior, np.array([0.5, 0.25, 0.25]))


def test_identical_priors_give_group_frequencies():
    """When all tuples share the same prior, the Omega posterior is the group's
    empirical distribution for every tuple (the l-diversity/random-world case)."""
    prior = np.tile(np.array([0.6, 0.3, 0.1]), (5, 1))
    counts = np.array([1, 3, 1])
    posterior = omega_posterior(prior, counts)
    assert np.allclose(posterior, counts / counts.sum())


def test_whole_table_group_changes_nothing(small_adult, small_adult_priors):
    """For the single group containing everything, column sums track the counts and
    the Omega posterior stays very close to the prior (no information released)."""
    prior = small_adult_priors.matrix
    codes = small_adult.sensitive_codes()
    counts = np.bincount(codes, minlength=small_adult.sensitive_domain().size)
    posterior = omega_posterior(prior, counts)
    assert np.abs(posterior - prior).max() < 0.05


def test_zero_column_fallback():
    """A value present in the group but excluded by every prior gets a uniform share."""
    prior = np.array([[1.0, 0.0], [1.0, 0.0]])
    counts = np.array([1, 1])
    posterior = omega_posterior(prior, counts)
    assert np.allclose(posterior.sum(axis=1), 1.0)
    assert np.allclose(posterior[:, 1], 0.5)


def test_zero_row_fallback():
    """A tuple whose prior excludes all present values falls back to group frequencies."""
    prior = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    counts = np.array([2, 1, 0])
    posterior = omega_posterior(prior, counts)
    assert np.allclose(posterior[0], [2 / 3, 1 / 3, 0.0])


def test_validation_errors():
    with pytest.raises(InferenceError):
        omega_posterior(np.array([[0.5, 0.5]]), np.array([1, 1]))


@pytest.mark.parametrize("index", [None, np.array([0])])
def test_group_pass_refuses_a_scalar_prior(index):
    with pytest.raises(InferenceError, match="cover the same tuples"):
        group_pass(np.float64(0.5), np.array([0]), np.array([0]), np.array([0]), index=index)


def test_paper_table_iii_value():
    """The Omega-estimate reproduces the 0.66 value worked out in Section III-D."""
    prior = np.array([[0.0, 1.0], [0.0, 1.0], [0.3, 0.7]])
    counts = np.array([1, 2])
    posterior = omega_posterior(prior, counts)
    assert posterior[2, 0] == pytest.approx(0.659, abs=0.005)


def test_omega_close_to_exact_on_random_groups():
    """The estimate should usually be close to exact inference (Figure 2's claim)."""
    rng = np.random.default_rng(21)
    gaps = []
    for _ in range(30):
        k, m = 6, 4
        prior = rng.dirichlet(np.ones(m) * 2, size=k)
        codes = rng.integers(0, m, size=k)
        counts = np.bincount(codes, minlength=m)
        omega = omega_posterior(prior, counts)
        exact = exact_posterior(prior, counts)
        gaps.append(np.abs(omega - exact).max())
    assert float(np.mean(gaps)) < 0.15


def test_posterior_for_groups_covers_and_preserves_uncovered(small_adult, small_adult_priors):
    prior = small_adult_priors.matrix
    codes = small_adult.sensitive_codes()
    groups = [np.arange(0, 10), np.arange(10, 25)]
    posterior = posterior_for_groups(prior, codes, groups)
    # Covered tuples may change; uncovered tuples keep their prior untouched.
    assert np.allclose(posterior[25:], prior[25:])
    assert np.allclose(posterior.sum(axis=1), 1.0)


def test_posterior_for_groups_rejects_overlap(small_adult, small_adult_priors):
    prior = small_adult_priors.matrix
    codes = small_adult.sensitive_codes()
    with pytest.raises(InferenceError):
        posterior_for_groups(prior, codes, [np.arange(0, 10), np.arange(5, 15)])


def test_posterior_for_groups_unknown_method(small_adult, small_adult_priors):
    with pytest.raises(InferenceError):
        posterior_for_groups(
            small_adult_priors.matrix,
            small_adult.sensitive_codes(),
            [np.arange(5)],
            method="magic",
        )


def test_posterior_for_groups_exact_method(small_adult, small_adult_priors):
    prior = small_adult_priors.matrix
    codes = small_adult.sensitive_codes()
    groups = [np.arange(0, 6), np.arange(6, 12)]
    exact = posterior_for_groups(prior, codes, groups, method="exact")
    omega = posterior_for_groups(prior, codes, groups, method="omega")
    assert exact.shape == omega.shape
    assert np.allclose(exact.sum(axis=1), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=10),
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_omega_properties(k, m, seed):
    """Property: Omega posteriors are valid distributions restricted to group values."""
    rng = np.random.default_rng(seed)
    prior = rng.dirichlet(np.ones(m), size=k)
    codes = rng.integers(0, m, size=k)
    counts = np.bincount(codes, minlength=m)
    posterior = omega_posterior(prior, counts)
    assert posterior.shape == (k, m)
    assert np.allclose(posterior.sum(axis=1), 1.0)
    assert posterior.min() >= 0.0
    assert np.allclose(posterior[:, counts == 0], 0.0)
