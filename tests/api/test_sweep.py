"""Tests for parameter sweeps (grid expansion, execution, error handling)."""

import pytest

from repro.api.session import Session
from repro.api.sweep import SweepSpec, expand_grid
from repro.exceptions import PipelineError
from repro.knowledge.backend import EstimatorConfig


def test_expand_grid_cartesian_product():
    specs = expand_grid(model=["bt", "t-closeness"], b=[0.2, 0.3], t=0.2, k=4)
    assert len(specs) == 4
    assert {spec.model for spec in specs} == {"bt", "t-closeness"}
    assert all(spec.k == 4 for spec in specs)
    assert sorted({spec.params["b"] for spec in specs}) == [0.2, 0.3]
    assert all(spec.params["t"] == 0.2 for spec in specs)


def test_expand_grid_requires_model_axis():
    with pytest.raises(PipelineError, match="model"):
        expand_grid(b=[0.2, 0.3])


def test_sweep_heterogeneous_models_share_cache(tiny_adult):
    session = Session(tiny_adult)
    outcome = session.sweep(
        expand_grid(
            model=["bt", "distinct-l", "probabilistic-l", "t-closeness"],
            b=0.3, t=0.25, l=3, k=3,
            audit={"b_prime": 0.3, "threshold": 0.25},
        )
    )
    assert len(outcome.rows) == 4
    assert all(row.ok for row in outcome.rows)
    # One kernel estimation serves the (B,t) model and all four audits.
    assert outcome.stats["prior_estimations"] == 1
    bundles = outcome.bundles()
    bt_label = next(label for label in bundles if label.startswith("bt("))
    assert bundles[bt_label].attack.vulnerable_tuples == 0
    rendered = outcome.render()
    assert "label" in rendered and "vulnerable_tuples" in rendered
    assert len(rendered.splitlines()) == 2 + len(outcome.rows)


def test_sweep_models_use_the_session_kernel(tiny_adult):
    """Grid rows built by name enforce the session's Adv(B), the one it audits."""
    session = Session(tiny_adult, config=EstimatorConfig(kernel="gaussian"))
    outcome = session.sweep(
        expand_grid(
            model="bt", b=0.3, t=[0.2, 0.25], k=3,
            audit={"b_prime": 0.3, "threshold": 0.25},
        )
    )
    assert all(row.ok for row in outcome.rows)
    # One Gaussian estimation serves both rows' models and both audits.
    assert outcome.stats["prior_estimations"] == 1
    assert all(row.label.startswith("bt(b=0.3, t=") for row in outcome.rows)


def test_sweep_accepts_mappings_and_labels(tiny_adult):
    session = Session(tiny_adult)
    outcome = session.sweep(
        [
            {"model": "distinct-l", "params": {"l": 3}, "k": 3, "label": "baseline"},
            SweepSpec(model="t-closeness", params={"t": 0.25}, k=3, label="closeness"),
        ]
    )
    assert [row.label for row in outcome.rows] == ["baseline", "closeness"]


def test_sweep_on_error_continue_records_failures(tiny_adult):
    session = Session(tiny_adult)
    specs = [
        SweepSpec(model="distinct-l", params={"l": 3}, k=3),
        # Impossible: more distinct sensitive values than the domain holds.
        SweepSpec(model="distinct-l", params={"l": 50}, k=3, label="impossible"),
    ]
    outcome = session.sweep(specs, on_error="continue")
    assert outcome.rows[0].ok
    assert not outcome.rows[1].ok
    assert outcome.rows[1].error
    assert "error" in outcome.render()
    with pytest.raises(Exception):
        session.sweep(specs, on_error="raise")


def test_sweep_rejects_empty_and_bad_arguments(tiny_adult):
    session = Session(tiny_adult)
    with pytest.raises(PipelineError, match="at least one spec"):
        session.sweep([])
    with pytest.raises(PipelineError, match="on_error"):
        session.sweep([SweepSpec(model="distinct-l")], on_error="explode")


def test_duplicate_labels_are_disambiguated(tiny_adult):
    session = Session(tiny_adult)
    # distinct-l ignores the swept t axis, so both rows resolve to one label.
    specs = expand_grid(model=["distinct-l"], t=[0.1, 0.2], l=3, k=3)
    outcome = session.sweep(specs)
    labels = [row.label for row in outcome.rows]
    assert len(set(labels)) == 2
    assert all(label.endswith(("#1", "#2")) for label in labels)
    assert len(outcome.bundles()) == 2
