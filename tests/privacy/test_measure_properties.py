"""Hypothesis property tests for the paper's five distance-measure desiderata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.measures import (
    JSDivergence,
    SmoothedJSDivergence,
    _rowwise_js,
    _topsoe_bound,
    js_divergence,
    smoothed_js_divergence,
)

_GROUND = np.array(
    [
        [0.0, 0.5, 1.0, 1.0],
        [0.5, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 0.5],
        [1.0, 1.0, 0.5, 0.0],
    ]
)


def _distributions(size=4):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=size, max_size=size
    ).map(_normalise)


def _normalise(weights):
    array = np.asarray(weights, dtype=np.float64)
    total = array.sum()
    if total <= 0.0:
        array = np.ones_like(array)
        total = array.sum()
    return array / total


@settings(max_examples=75, deadline=None)
@given(p=_distributions())
def test_identity_of_indiscernibles(p):
    """Desideratum 1: D[P, P] = 0."""
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
    assert smoothed_js_divergence(p, p, _GROUND, bandwidth=0.6) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=75, deadline=None)
@given(p=_distributions(), q=_distributions())
def test_non_negativity(p, q):
    """Desideratum 2: D[P, Q] >= 0, and it is always finite (desideratum 4)."""
    for value in (
        js_divergence(p, q),
        smoothed_js_divergence(p, q, _GROUND, bandwidth=0.6),
    ):
        assert np.isfinite(value)
        assert value >= -1e-12


@settings(max_examples=75, deadline=None)
@given(p=_distributions(), q=_distributions())
def test_bounded_by_one(p, q):
    """JS-based measures are bounded by 1 bit, so thresholds t in [0, 1] are meaningful."""
    assert js_divergence(p, q) <= 1.0 + 1e-9
    assert smoothed_js_divergence(p, q, _GROUND, bandwidth=0.6) <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.005, max_value=0.05),
    beta=st.floats(min_value=0.3, max_value=0.45),
    gamma=st.floats(min_value=0.05, max_value=0.1),
)
def test_probability_scaling(alpha, beta, gamma):
    """Desideratum 3: a gain of gamma on a rare value counts more than on a common one."""
    rare_before = np.array([alpha, 1.0 - alpha])
    rare_after = np.array([alpha + gamma, 1.0 - alpha - gamma])
    common_before = np.array([beta, 1.0 - beta])
    common_after = np.array([beta + gamma, 1.0 - beta - gamma])
    assert js_divergence(rare_before, rare_after) > js_divergence(common_before, common_after)


@settings(max_examples=50, deadline=None)
@given(p=_distributions(), q=_distributions())
def test_rowwise_consistency(p, q):
    """The vectorised row-wise implementations agree with the scalar definitions."""
    stacked_p = np.vstack([p, q])
    stacked_q = np.vstack([q, p])
    js = JSDivergence()
    smoothed = SmoothedJSDivergence(_GROUND, bandwidth=0.6)
    assert np.allclose(
        js.rowwise(stacked_p, stacked_q), [js(p, q), js(q, p)], atol=1e-9
    )
    assert np.allclose(
        smoothed.rowwise(stacked_p, stacked_q), [smoothed(p, q), smoothed(q, p)], atol=1e-9
    )


_SUBNORMALS = st.sampled_from([5e-324, 1e-320, 3e-310, 2.2e-308])


@st.composite
def _bound_pairs(draw):
    """Row pairs of every shape the screen meets: arbitrary, disjoint supports,
    near-equal and subnormal-laden (unnormalised vectors are fine: the bound
    holds coordinate by coordinate)."""
    kind = draw(st.sampled_from(["any", "disjoint", "near-equal", "subnormal"]))
    p = draw(_distributions(6))
    if kind == "any":
        q = draw(_distributions(6))
    elif kind == "disjoint":
        split = draw(st.integers(min_value=1, max_value=5))
        q = np.concatenate([np.zeros(split), _normalise(p[split:])])
        p = np.concatenate([_normalise(p[:split]), np.zeros(6 - split)])
    elif kind == "near-equal":
        noise = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)))
        scale = draw(st.floats(min_value=1e-15, max_value=1e-6))
        q = _normalise(p + scale * noise)
    else:
        q = draw(_distributions(6))
        for vector in (p, q):
            spots = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
            vector[spots] = [draw(_SUBNORMALS) for _ in spots]
    return p, q


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(_bound_pairs(), min_size=1, max_size=8))
def test_topsoe_bound_dominates_js(pairs):
    """The screen's log-free bound never falls below exact JS (in bits)."""
    p = np.vstack([pair[0] for pair in pairs])
    q = np.vstack([pair[1] for pair in pairs])
    for left, right in ((p, q), (q, p)):
        exact = _rowwise_js(left, right)
        bound = _topsoe_bound(left, right)
        assert (exact <= bound + 1e-15).all()


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(_bound_pairs(), min_size=1, max_size=8),
    t=st.sampled_from([0.0, 1e-6, 0.05, 0.2, 0.5, 1.0]),
)
def test_screened_rows_keep_the_verdict_contract(pairs, t):
    """A screened value above ``t`` is the exact value bitwise; one at or
    below ``t`` only promises the exact value is within ``t + 1e-12``."""
    p = np.vstack([pair[0] for pair in pairs])
    q = np.vstack([pair[1] for pair in pairs])
    ground = np.where(np.kron(np.eye(2), np.ones((3, 3))) > 0.0, 0.5, 1.0)
    np.fill_diagonal(ground, 0.0)
    for measure in (JSDivergence(), SmoothedJSDivergence(ground, bandwidth=0.6)):
        exact = measure.rowwise(p, q)
        values, flagged = measure.rowwise_screened(p, q, t)
        assert values[flagged].tobytes() == exact[flagged].tobytes()
        assert flagged[values > t].all()
        assert (exact[~flagged] <= t + 1e-12).all()
