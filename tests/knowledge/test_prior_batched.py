"""Multi-bandwidth passes of the kernel estimator vs one-call estimates."""

import numpy as np
import pytest

from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import (
    BatchedKernelPriorEstimator,
    flat_kernel_prior,
    kernel_prior,
)

BANDWIDTHS = (0.1, 0.3, 0.5)


@pytest.fixture(scope="module")
def factored(tiny_adult_module):
    estimator = BatchedKernelPriorEstimator().fit(tiny_adult_module)
    assert estimator.backend.solo is not None
    return estimator


@pytest.fixture(scope="module")
def tiny_adult_module():
    from repro.data.adult import generate_adult

    return generate_adult(300, seed=7)


def test_factored_matches_legacy_per_bandwidth(factored, tiny_adult_module):
    batched = factored.prior_for_table(BANDWIDTHS)
    for b, priors in zip(BANDWIDTHS, batched):
        reference = kernel_prior(tiny_adult_module, b)
        np.testing.assert_allclose(priors.matrix, reference.matrix, atol=1e-9)
        assert priors.description == reference.description


def test_factored_matches_flat_reference(factored, tiny_adult_module):
    batched = factored.prior_for_table(BANDWIDTHS)
    for b, priors in zip(BANDWIDTHS, batched):
        reference = flat_kernel_prior(tiny_adult_module, b)
        np.testing.assert_allclose(priors.matrix, reference, atol=1e-12, rtol=0)


@pytest.mark.parametrize("kernel", ["gaussian", "triangular", "uniform"])
def test_other_kernels_match(tiny_adult_module, kernel):
    config = EstimatorConfig(kernel=kernel)
    estimator = BatchedKernelPriorEstimator(config).fit(tiny_adult_module)
    batched = estimator.prior_for_table(BANDWIDTHS)[1]
    reference = kernel_prior(tiny_adult_module, BANDWIDTHS[1], config=config)
    np.testing.assert_allclose(batched.matrix, reference.matrix, atol=1e-9)


def test_per_attribute_bandwidth_matches(factored, tiny_adult_module):
    names = list(tiny_adult_module.quasi_identifier_names)
    bandwidth = Bandwidth.split(names[:2], 0.15, names[2:], 0.45)
    batched = factored.prior_for_table([bandwidth])[0]
    legacy = kernel_prior(tiny_adult_module, bandwidth)
    np.testing.assert_allclose(batched.matrix, legacy.matrix, atol=1e-9)


def test_prior_for_codes_matches_the_fitted_rows(factored, tiny_adult_module):
    """Querying the fitted table's own QI codes reproduces its per-row priors."""
    codes = tiny_adult_module.qi_code_matrix()[:40]
    for b in BANDWIDTHS:
        np.testing.assert_allclose(
            factored.prior_for_codes(codes, b),
            factored.prior_for_table([b])[0].matrix[:40],
            atol=1e-12,
            rtol=0,
        )


def test_duplicate_bandwidths_share_one_computation(factored):
    first, second = factored.prior_for_table([0.3, 0.3])
    assert first.rows is second.rows and first.index is second.index


def test_rows_are_distributions(factored):
    for priors in factored.prior_for_table(BANDWIDTHS):
        np.testing.assert_allclose(priors.matrix.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(priors.matrix >= -1e-12)


def test_unfitted_estimator_rejected():
    with pytest.raises(KnowledgeError, match="not fitted"):
        BatchedKernelPriorEstimator().prior_for_table([0.3])


def test_uncovering_bandwidth_rejected(factored):
    partial = Bandwidth({"Age": 0.3})
    with pytest.raises(KnowledgeError, match="does not cover"):
        factored.prior_for_table([partial])
