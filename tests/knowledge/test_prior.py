"""Tests for kernel-regression prior estimation (Sections II-B to II-D)."""

import numpy as np
import pytest

from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import (
    BatchedKernelPriorEstimator,
    PriorBeliefs,
    kernel_prior,
    mle_prior,
    overall_prior,
    uniform_prior,
)


@pytest.fixture()
def toy_table():
    """A tiny table with a deterministic Age <-> Disease relationship.

    Ages 20-22 always have Flu, ages 80-82 always have Cancer, so a
    small-bandwidth adversary should be near-certain about every tuple while a
    huge-bandwidth adversary only knows the 50/50 overall distribution.
    """
    schema = Schema([numeric_qi("Age"), sensitive("Disease")])
    return MicrodataTable.from_columns(
        schema,
        {
            "Age": [20, 21, 22, 80, 81, 82],
            "Disease": ["Flu", "Flu", "Flu", "Cancer", "Cancer", "Cancer"],
        },
    )


def test_prior_beliefs_validation():
    with pytest.raises(KnowledgeError):
        PriorBeliefs(matrix=np.array([[0.5, 0.6]]))  # does not sum to 1
    with pytest.raises(KnowledgeError):
        PriorBeliefs(matrix=np.array([[1.5, -0.5]]))  # negative entry
    with pytest.raises(KnowledgeError):
        PriorBeliefs(matrix=np.array([0.5, 0.5]))  # not 2-D
    beliefs = PriorBeliefs(matrix=np.array([[0.25, 0.75]]))
    assert beliefs.n_rows == 1
    assert beliefs.n_sensitive_values == 2


def test_prior_beliefs_compare_by_identity():
    rows = np.array([[0.25, 0.75], [1.0, 0.0]])
    beliefs = PriorBeliefs(rows=rows, index=np.array([1, 0, 0, 1]))
    twin = PriorBeliefs(rows=rows, index=np.array([1, 0, 0, 1]))
    assert beliefs == beliefs and beliefs != twin
    assert beliefs in [twin, beliefs] and twin not in [beliefs]
    assert len({beliefs, twin, beliefs}) == 2
    np.testing.assert_array_equal(beliefs.matrix, rows[[1, 0, 0, 1]])
    assert beliefs.n_rows == 4 and beliefs.n_sensitive_values == 2
    with pytest.raises(KnowledgeError, match="outside"):
        PriorBeliefs(rows=rows, index=np.array([0, 2]))
    with pytest.raises(KnowledgeError, match="not both"):
        PriorBeliefs(rows, rows=rows)


def test_rows_are_distributions(small_adult, small_adult_priors):
    matrix = small_adult_priors.matrix
    assert matrix.shape == (small_adult.n_rows, small_adult.sensitive_domain().size)
    assert np.allclose(matrix.sum(axis=1), 1.0)
    assert matrix.min() >= 0.0


def test_small_bandwidth_sharpens_toward_true_value(toy_table):
    priors = kernel_prior(toy_table, 0.05)
    codes = toy_table.sensitive_codes()
    for row in range(toy_table.n_rows):
        assert priors.matrix[row, codes[row]] > 0.95


def test_large_bandwidth_with_uniform_kernel_recovers_overall(toy_table):
    """Section II-D: bandwidth = domain range + uniform kernel = t-closeness adversary."""
    priors = kernel_prior(toy_table, 1.0, config=EstimatorConfig(kernel="uniform"))
    overall = toy_table.sensitive_distribution()
    assert np.allclose(priors.matrix, overall, atol=1e-12)


def test_bandwidth_monotonicity_of_knowledge(small_adult):
    """Smaller bandwidths concentrate more prior mass on each tuple's true value."""
    sharp = kernel_prior(small_adult, 0.1)
    blunt = kernel_prior(small_adult, 0.8)
    codes = small_adult.sensitive_codes()
    rows = np.arange(small_adult.n_rows)
    sharp_mass = sharp.matrix[rows, codes].mean()
    blunt_mass = blunt.matrix[rows, codes].mean()
    assert sharp_mass > blunt_mass


def test_priors_always_average_to_overall_distribution(small_adult):
    """Kernel priors are consistent with the data: no adversary disputes the marginal."""
    priors = kernel_prior(small_adult, 0.3)
    overall = small_adult.sensitive_distribution()
    assert np.allclose(priors.matrix.mean(axis=0), overall, atol=0.03)


def test_estimator_requires_fit(small_adult):
    estimator = BatchedKernelPriorEstimator()
    with pytest.raises(KnowledgeError):
        estimator.prior_for_table(
            [Bandwidth.uniform(small_adult.quasi_identifier_names, 0.3)]
        )


def test_estimator_requires_full_bandwidth_coverage(small_adult):
    with pytest.raises(KnowledgeError) as excinfo:
        kernel_prior(small_adult, Bandwidth({"Age": 0.3}))
    assert "Workclass" in str(excinfo.value)


def test_query_codes_shape_validation(toy_table):
    estimator = BatchedKernelPriorEstimator().fit(toy_table)
    with pytest.raises(KnowledgeError):
        estimator.prior_for_codes(np.zeros((2, 3), dtype=np.int64), Bandwidth({"Age": 0.3}))


@pytest.mark.parametrize("bad", [-1, 6])
def test_out_of_domain_query_codes_are_refused(toy_table, bad):
    # -1 used to wrap to the last Age value and 6 (= |D_Age|) to fail in np.take.
    estimator = BatchedKernelPriorEstimator().fit(toy_table)
    with pytest.raises(KnowledgeError) as excinfo:
        estimator.prior_for_codes(np.array([[0], [bad]]), 0.3)
    message = str(excinfo.value)
    assert f"query code {bad} " in message
    assert "'Age'" in message
    assert "domain of 6 values" in message


def test_per_attribute_bandwidth(small_adult):
    """A Bandwidth object with different per-attribute values is accepted."""
    names = small_adult.quasi_identifier_names
    bandwidth = Bandwidth.split(list(names[:3]), 0.2, list(names[3:]), 0.5)
    priors = kernel_prior(small_adult, bandwidth)
    assert np.allclose(priors.matrix.sum(axis=1), 1.0)


def test_uniform_prior_is_inconsistent_ignorant_adversary(small_adult):
    beliefs = uniform_prior(small_adult)
    m = small_adult.sensitive_domain().size
    assert np.allclose(beliefs.matrix, 1.0 / m)


def test_overall_prior_matches_table_distribution(small_adult):
    beliefs = overall_prior(small_adult)
    assert np.allclose(beliefs.matrix[0], small_adult.sensitive_distribution())
    assert np.allclose(beliefs.matrix, beliefs.matrix[0])


def test_mle_prior_conditions_on_exact_qi(toy_table):
    beliefs = mle_prior(toy_table)
    codes = toy_table.sensitive_codes()
    for row in range(toy_table.n_rows):
        # Every QI value is unique in the toy table, so the MLE is degenerate.
        assert beliefs.matrix[row, codes[row]] == pytest.approx(1.0)


def test_mle_prior_groups_identical_qi_values():
    schema = Schema([categorical_qi("Sex"), sensitive("Disease")])
    table = MicrodataTable.from_columns(
        schema, {"Sex": ["M", "M", "F", "F"], "Disease": ["Flu", "Cancer", "Flu", "Flu"]}
    )
    beliefs = mle_prior(table)
    flu = table.sensitive_domain().code_of("Flu")
    males = [i for i, v in enumerate(table.column("Sex")) if v == "M"]
    for index in males:
        assert beliefs.matrix[index, flu] == pytest.approx(0.5)
