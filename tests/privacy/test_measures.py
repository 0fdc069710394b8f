"""Tests for distance measures between distributions (Section IV-B)."""

import numpy as np
import pytest

from repro.data.distance import attribute_distance_matrix
from repro.exceptions import PrivacyModelError
from repro.privacy.measures import (
    EMDDistance,
    HierarchicalEMD,
    JSDivergence,
    KLDivergence,
    SmoothedJSDivergence,
    emd_distance,
    js_divergence,
    kl_divergence,
    sensitive_distance_measure,
    smooth_distribution,
    smoothed_js_divergence,
    total_variation,
)


def test_kl_divergence_basics():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    assert kl_divergence(p, p) == pytest.approx(0.0)
    assert kl_divergence(p, q) > 0.0
    assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))


def test_kl_divergence_undefined_with_zero_probability():
    """The zero-probability definability failure the paper points out."""
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert kl_divergence(p, q) == float("inf")


def test_js_divergence_defined_with_zero_probability():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    value = js_divergence(p, q)
    assert np.isfinite(value)
    assert 0.0 < value <= 1.0


def test_js_divergence_bounds_and_identity():
    p = np.array([0.2, 0.3, 0.5])
    assert js_divergence(p, p) == pytest.approx(0.0)
    opposite = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert js_divergence(*opposite) == pytest.approx(1.0)


def test_total_variation():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(0.0)


def test_distribution_validation():
    with pytest.raises(PrivacyModelError):
        js_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(PrivacyModelError):
        js_divergence(np.array([0.5, 0.5]), np.array([0.7, 0.3, 0.0]))
    with pytest.raises(PrivacyModelError):
        js_divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


def test_ordered_emd_matches_paper_example():
    """The paper's EMD example: both pairs have distance 0.1 on an ordered 2-value domain."""
    first = emd_distance(np.array([0.01, 0.99]), np.array([0.11, 0.89]))
    second = emd_distance(np.array([0.4, 0.6]), np.array([0.5, 0.5]))
    assert first == pytest.approx(0.1)
    assert second == pytest.approx(0.1)


def test_emd_lacks_probability_scaling_but_js_has_it():
    """EMD treats the two changes alike; JS treats the small-probability change as larger."""
    small_change = (np.array([0.01, 0.99]), np.array([0.11, 0.89]))
    large_change = (np.array([0.4, 0.6]), np.array([0.5, 0.5]))
    assert emd_distance(*small_change) == pytest.approx(emd_distance(*large_change))
    assert js_divergence(*small_change) > js_divergence(*large_change)


def test_emd_with_ground_distance_matrix():
    ground = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
    p = np.array([1.0, 0.0, 0.0])
    near = np.array([0.0, 1.0, 0.0])
    far = np.array([0.0, 0.0, 1.0])
    assert emd_distance(p, near, ground) == pytest.approx(0.5)
    assert emd_distance(p, far, ground) == pytest.approx(1.0)


def test_emd_ground_matrix_shape_check():
    with pytest.raises(PrivacyModelError):
        emd_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.zeros((3, 3)))


def test_emd_single_value_domain():
    assert emd_distance(np.array([1.0]), np.array([1.0])) == 0.0


def test_smooth_distribution_spreads_mass_to_neighbours():
    ground = np.array([[0.0, 0.4, 1.0], [0.4, 0.0, 1.0], [1.0, 1.0, 0.0]])
    p = np.array([1.0, 0.0, 0.0])
    smoothed = smooth_distribution(p, ground, bandwidth=0.5)
    assert smoothed.sum() == pytest.approx(1.0)
    assert smoothed[1] > 0.0  # the semantic neighbour receives mass
    assert smoothed[2] == pytest.approx(0.0)  # the distant value does not


def test_smooth_distribution_validation():
    ground = np.zeros((2, 2))
    with pytest.raises(PrivacyModelError):
        smooth_distribution(np.array([0.5, 0.5]), np.zeros((3, 3)))
    with pytest.raises(PrivacyModelError):
        smooth_distribution(np.array([0.5, 0.5]), ground, bandwidth=0.0)


def test_smoothed_js_satisfies_semantic_awareness():
    """Desideratum 5: moving mass to a semantically close value costs less."""
    ground = np.array(
        [
            [0.0, 0.4, 1.0, 1.0],
            [0.4, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.4],
            [1.0, 1.0, 0.4, 0.0],
        ]
    )
    p = np.array([0.7, 0.1, 0.1, 0.1])
    to_near = np.array([0.1, 0.7, 0.1, 0.1])  # mass moves to the close neighbour
    to_far = np.array([0.1, 0.1, 0.7, 0.1])  # mass moves across the hierarchy
    near_distance = smoothed_js_divergence(p, to_near, ground, bandwidth=0.5)
    far_distance = smoothed_js_divergence(p, to_far, ground, bandwidth=0.5)
    assert near_distance < far_distance
    # Plain JS cannot tell the two apart.
    assert js_divergence(p, to_near) == pytest.approx(js_divergence(p, to_far))


def test_smoothed_js_identity_and_nonnegativity():
    ground = np.array([[0.0, 0.5], [0.5, 0.0]])
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    assert smoothed_js_divergence(p, p, ground) == pytest.approx(0.0)
    assert smoothed_js_divergence(p, q, ground) >= 0.0


def test_smoothed_js_zero_probability_definability():
    ground = np.array([[0.0, 1.0], [1.0, 0.0]])
    value = smoothed_js_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]), ground, bandwidth=1.5)
    assert np.isfinite(value)


def test_measure_objects_match_functions():
    p = np.array([0.2, 0.8])
    q = np.array([0.7, 0.3])
    assert KLDivergence()(p, q) == pytest.approx(kl_divergence(p, q))
    assert JSDivergence()(p, q) == pytest.approx(js_divergence(p, q))
    assert EMDDistance()(p, q) == pytest.approx(emd_distance(p, q))


def test_rowwise_matches_scalar_calls():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(4), size=10)
    q = rng.dirichlet(np.ones(4), size=10)
    ground = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]) / 3.0
    for measure in (JSDivergence(), SmoothedJSDivergence(ground, bandwidth=0.6), EMDDistance(ground)):
        rowwise = measure.rowwise(p, q)
        scalar = np.array([measure(p[i], q[i]) for i in range(10)])
        assert np.allclose(rowwise, scalar, atol=1e-10)


def test_rowwise_shape_mismatch():
    with pytest.raises(PrivacyModelError):
        JSDivergence().rowwise(np.ones((2, 3)) / 3, np.ones((3, 3)) / 3)


def test_hierarchical_emd_matches_linear_program(small_adult):
    domain = small_adult.sensitive_domain()
    taxonomy = domain.attribute.taxonomy
    hierarchical = HierarchicalEMD(taxonomy, [str(v) for v in domain.values.tolist()])
    ground = attribute_distance_matrix(domain)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.dirichlet(np.ones(domain.size))
        q = rng.dirichlet(np.ones(domain.size))
        assert hierarchical(p, q) == pytest.approx(emd_distance(p, q, ground), abs=1e-8)


def test_hierarchical_emd_rowwise(small_adult):
    domain = small_adult.sensitive_domain()
    taxonomy = domain.attribute.taxonomy
    hierarchical = HierarchicalEMD(taxonomy, [str(v) for v in domain.values.tolist()])
    rng = np.random.default_rng(9)
    p = rng.dirichlet(np.ones(domain.size), size=6)
    q = rng.dirichlet(np.ones(domain.size), size=6)
    rowwise = hierarchical.rowwise(p, q)
    scalar = np.array([hierarchical(p[i], q[i]) for i in range(6)])
    assert np.allclose(rowwise, scalar)


def test_hierarchical_emd_unknown_leaf(small_adult):
    taxonomy = small_adult.sensitive_domain().attribute.taxonomy
    with pytest.raises(PrivacyModelError):
        HierarchicalEMD(taxonomy, ["NotARealOccupation"])


def test_sensitive_distance_measure_builds_smoothed_js(small_adult):
    measure = sensitive_distance_measure(small_adult)
    assert isinstance(measure, SmoothedJSDivergence)
    p = np.zeros(small_adult.sensitive_domain().size)
    p[0] = 1.0
    assert measure(p, p) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "options", [{"bandwidth": 0.9}, {"bandwidth": 0.9, "kernel": "gaussian"}],
    ids=["epanechnikov-0.9", "gaussian-0.9"],
)
def test_smoothed_js_row_values_do_not_depend_on_the_batch(small_adult, options):
    """A row's smoothed-JS distance is bitwise the same in a call of any size.

    The risk kernel evaluates rows in tiles of whatever rows share them, so
    a row's risk must not depend on its neighbours.  A BLAS product of one
    row takes another path than a 4,096-row product and differs in the last
    bits; the measure must not smooth through one.
    """
    measure = sensitive_distance_measure(small_adult, **options)
    assert not measure._identity  # real smoothing, not the identity skip
    rng = np.random.default_rng(23)
    m = small_adult.sensitive_domain().size
    p = rng.dirichlet(np.ones(m), size=4096)
    q = rng.dirichlet(np.ones(m), size=4096)
    full = measure.rowwise(p, q)
    screened, exact = measure.rowwise_screened(p, q, 0.0)
    assert exact.all() and screened.tobytes() == full.tobytes()
    for size in (1, 2, 3, 7, 64):
        for start in rng.choice(4096 - size, size=40, replace=False):
            rows = slice(int(start), int(start) + size)
            assert measure.rowwise(p[rows], q[rows]).tobytes() == full[rows].tobytes()
