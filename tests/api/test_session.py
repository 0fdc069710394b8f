"""Tests for Session: cached preparation shared across runs."""

import numpy as np
import pytest

from repro.api.session import Session
from repro.audit.engine import SkylineAuditEngine
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import kernel_prior
from repro.obs.tracing import Tracer
from repro.privacy.models import BTPrivacy, CompositeModel, KAnonymity, SkylineBTPrivacy


def test_same_model_twice_estimates_priors_once(tiny_adult):
    session = Session(tiny_adult)
    first = session.anonymize("bt", params={"b": 0.3, "t": 0.25}, k=3)
    second = session.anonymize("bt", params={"b": 0.3, "t": 0.25}, k=3)
    assert session.stats.prior_estimations == 1
    assert session.stats.prior_cache_hits == 1
    # Same requirement, same cached priors -> identical partitions.
    assert len(first.release.groups) == len(second.release.groups)
    for a, b in zip(first.release.groups, second.release.groups):
        np.testing.assert_array_equal(a, b)


def test_different_bandwidths_estimate_separately(tiny_adult):
    session = Session(tiny_adult)
    session.priors(0.3)
    session.priors(0.5)
    session.priors(0.3)
    assert session.stats.prior_estimations == 2
    assert session.stats.prior_cache_hits == 1


def test_scalar_and_uniform_bandwidth_share_a_cache_entry(tiny_adult):
    session = Session(tiny_adult)
    session.priors(0.3)
    uniform = Bandwidth.uniform(tiny_adult.quasi_identifier_names, 0.3)
    session.priors(uniform)
    assert session.stats.prior_estimations == 1
    assert session.stats.prior_cache_hits == 1


def test_differing_max_cells_never_collide_in_the_cache(tiny_adult):
    """Each session caches the priors of its own backend configuration."""
    default_session = Session(tiny_adult)
    blocked_session = Session(tiny_adult, config=EstimatorConfig(max_cells=1))
    default = default_session.priors(0.3)
    blocked = blocked_session.priors(0.3)
    for session in (default_session, blocked_session):
        assert session.stats.prior_estimations == 1
        assert session.stats.prior_cache_hits == 0
    # Both configs stay individually cached ...
    assert default_session.priors(0.3) is default
    assert blocked_session.priors(0.3) is blocked
    for session in (default_session, blocked_session):
        assert session.stats.prior_estimations == 1
        assert session.stats.prior_cache_hits == 1
    # ... and agree numerically (the blocked contraction is exact).
    np.testing.assert_allclose(default.matrix, blocked.matrix, atol=1e-12, rtol=0)


def test_session_kernel_governs_models_built_by_name(tiny_adult):
    """A Gaussian session enforces and audits one Gaussian Adv(B), not two kernels."""
    session = Session(tiny_adult, config=EstimatorConfig(kernel="gaussian"))
    assert session.build_model("bt", b=0.3, t=0.2).kernel == "gaussian"
    assert session.build_model("bt", b=0.3, t=0.2, kernel="uniform").kernel == "uniform"
    result = session.anonymize("bt", params={"b": 0.3, "t": 0.25}, k=3)
    report = session.audit_skyline(result.release.groups, [(0.3, 0.25)])
    assert session.stats.prior_estimations == 1
    assert session.stats.prior_cache_hits == 1
    assert report.entries[0].attack.vulnerable_tuples == 0


def test_session_jobs_shorthand_sets_the_config_threads(tiny_adult):
    assert Session(tiny_adult, jobs=1).config == EstimatorConfig(jobs=1)
    session = Session(tiny_adult, config=EstimatorConfig(kernel="uniform"), jobs=2)
    assert session.config == EstimatorConfig(kernel="uniform", jobs=2)


def test_session_priors_match_direct_estimation(tiny_adult):
    from repro.knowledge.prior import kernel_prior

    session = Session(tiny_adult)
    np.testing.assert_allclose(
        session.priors(0.3).matrix, kernel_prior(tiny_adult, 0.3).matrix
    )


def test_session_release_matches_plain_anonymize(tiny_adult):
    from repro.anonymize.anonymizer import anonymize

    plain = anonymize(tiny_adult, BTPrivacy(0.3, 0.25), k=3)
    session = Session(tiny_adult)
    cached = session.anonymize(BTPrivacy(0.3, 0.25), k=3)
    assert len(plain.release.groups) == len(cached.release.groups)
    for a, b in zip(plain.release.groups, cached.release.groups):
        np.testing.assert_array_equal(a, b)


def test_prepare_model_walks_composites_and_skylines(tiny_adult):
    session = Session(tiny_adult)
    skyline = SkylineBTPrivacy([(0.3, 0.3), (0.5, 0.2)])
    requirement = CompositeModel([KAnonymity(3), skyline])
    session.prepare_model(requirement)
    assert all(point.has_priors for point in skyline.points)
    assert session.stats.prior_estimations == 2  # one per distinct bandwidth
    # The matched (b = 0.3) point shares the cache with a later audit adversary.
    session.attack([np.arange(tiny_adult.n_rows)], b_prime=0.3, threshold=0.3)
    assert session.stats.prior_estimations == 2
    assert session.stats.prior_cache_hits >= 1


def test_attack_adversary_is_cached(tiny_adult):
    session = Session(tiny_adult)
    groups = [np.arange(tiny_adult.n_rows)]
    session.attack(groups, b_prime=0.3, threshold=0.2)
    session.attack(groups, b_prime=0.3, threshold=0.4)
    assert session.stats.attack_builds == 1
    assert session.stats.attack_cache_hits == 1


def test_baseline_estimators_available(tiny_adult):
    session = Session(tiny_adult)
    uniform = session.priors(estimator="uniform")
    m = tiny_adult.sensitive_domain().size
    np.testing.assert_allclose(uniform.matrix, np.full((tiny_adult.n_rows, m), 1.0 / m))
    # Parameter-free estimators ignore the kernel and need no bandwidth.
    session.priors(estimator="uniform")
    assert session.stats.prior_cache_hits == 1


def test_kernel_estimator_requires_bandwidth(tiny_adult):
    from repro.exceptions import KnowledgeError

    session = Session(tiny_adult)
    with pytest.raises(KnowledgeError, match="requires a bandwidth"):
        session.priors()


def test_audit_skyline_reuses_and_fills_the_prior_cache(tiny_adult):
    from repro.privacy.disclosure import BackgroundKnowledgeAttack

    session = Session(tiny_adult)
    groups = session.anonymize("distinct-l", params={"l": 3}, k=3).release.groups
    session.priors(0.3)  # one point is already cached
    report = session.audit_skyline(groups, [(0.1, 0.3), (0.3, 0.25), (0.5, 0.2)])
    assert session.stats.prior_cache_hits == 1
    # 0.3 was estimated above; the audit adds 0.1 and 0.5 in one batch.
    assert session.stats.prior_estimations == 3
    # The skyline's bandwidths entered the cache: a later single-adversary
    # attack is free.
    session.attack(groups, b_prime=0.5, threshold=0.2)
    assert session.stats.prior_estimations == 3
    # And the report matches the per-adversary attack exactly.
    reference = BackgroundKnowledgeAttack(tiny_adult, 0.5).attack(groups, 0.2)
    np.testing.assert_allclose(report.entries[2].attack.risks, reference.risks, atol=1e-9)


def test_audit_skyline_duplicate_points_estimate_once(tiny_adult):
    session = Session(tiny_adult)
    groups = session.anonymize("distinct-l", params={"l": 3}, k=3).release.groups
    session.audit_skyline(groups, [(0.25, 0.1), (0.25, 0.2)])
    assert session.stats.prior_estimations == 1


def test_session_stream_publishes_seed_and_appends(tiny_adult):
    session = Session(tiny_adult)
    publisher = session.stream("distinct-l", params={"l": 3}, k=4, skyline=[(0.3, 0.3)])
    assert len(publisher.store) == 1  # the seed release is already published
    assert publisher.latest.n_rows == tiny_adult.n_rows
    version = publisher.append(tiny_adult.rows()[:40])
    assert version.version == 1
    assert version.n_rows == tiny_adult.n_rows + 40
    assert version.report is not None


def test_session_stream_defaults_skyline_to_bt_model(tiny_adult):
    session = Session(tiny_adult)
    publisher = session.stream("bt", params={"b": 0.3, "t": 0.3}, k=4)
    assert len(publisher.skyline) == 1
    bandwidth, t = publisher.skyline[0]
    assert t == 0.3
    assert dict(bandwidth.items()) == {
        name: 0.3 for name in tiny_adult.quasi_identifier_names
    }


def test_session_stream_enforces_and_audits_the_session_kernel(tiny_adult):
    session = Session(tiny_adult, config=EstimatorConfig(kernel="gaussian", max_cells=5_000))
    publisher = session.stream("bt", params={"b": 0.3, "t": 0.3}, k=4)
    assert publisher.config == session.config
    (component,) = [c for c in publisher.model.components() if isinstance(c, BTPrivacy)]
    assert component.kernel == "gaussian"
    assert publisher.latest.satisfied


def test_session_accepts_a_table_source(tiny_adult):
    from repro.data.source import InMemoryTableSource

    resident = Session(tiny_adult)
    sourced = Session(InMemoryTableSource(tiny_adult, chunk_rows=64))
    assert sourced.table.n_rows == tiny_adult.n_rows
    a = resident.anonymize("distinct-l", params={"l": 3}, k=4)
    b = sourced.anonymize("distinct-l", params={"l": 3}, k=4)
    assert all(
        np.array_equal(x, y) for x, y in zip(a.release.groups, b.release.groups)
    )


SKYLINE = [(0.1, 0.2), (0.2, 0.2), (0.3, 0.2), (0.5, 0.2)]


def _fits(tracer: Tracer) -> int:
    return sum(span.name == "backend.fit" for span in tracer.take_root().walk())


def test_one_kernel_fit_serves_every_prior_of_a_session(tiny_adult):
    """Publish, audit a skyline and attack: one backend fit per kernel."""
    session = Session(tiny_adult)
    tracer = Tracer()
    with tracer.activate(), tracer.span("round"):
        session.priors(0.3)
        groups = session.anonymize("bt", params={"b": 0.3, "t": 0.25}, k=3).release.groups
        session.audit_skyline(groups, SKYLINE)
        session.attack(groups, b_prime=0.4, threshold=0.2)
    assert _fits(tracer) == 1
    assert session.stats.prior_estimations == 5  # 0.3, 0.1, 0.2, 0.5, 0.4
    with tracer.activate(), tracer.span("round"):
        session.priors(0.3, kernel="uniform")
        session.audit_skyline(groups, SKYLINE, kernel="uniform")
        session.attack(groups, b_prime=0.3, threshold=0.2)  # the first kernel's
    assert _fits(tracer) == 1


def test_every_session_prior_is_bitwise_a_fresh_estimation(tiny_adult):
    session = Session(tiny_adult, config=EstimatorConfig(jobs=1))
    groups = session.anonymize("bt", params={"b": 0.3, "t": 0.25}, k=3).release.groups
    session.audit_skyline(groups, SKYLINE)
    session.attack(groups, b_prime=0.4, threshold=0.2)
    session.audit_skyline(groups, [(0.25, 0.2)], kernel="gaussian")
    handed_out = [(b, "epanechnikov") for b in (0.1, 0.2, 0.3, 0.4, 0.5)]
    for b, kernel in handed_out + [(0.25, "gaussian")]:
        config = EstimatorConfig(kernel=kernel)
        reference = kernel_prior(tiny_adult, b, config=config).matrix
        assert np.array_equal(session.priors(b, kernel=kernel).matrix, reference)
    assert session.stats.prior_estimations == 6  # every lookup above was a hit


def test_an_engine_on_the_session_fit_audits_bitwise_like_its_own(tiny_adult):
    session = Session(tiny_adult)
    groups = session.anonymize("distinct-l", params={"l": 3}, k=3).release.groups
    shared = session.audit_skyline(groups, SKYLINE)
    own = SkylineAuditEngine(tiny_adult, SKYLINE).audit(groups)
    for ours, reference in zip(shared.entries, own.entries):
        assert np.array_equal(ours.attack.risks, reference.attack.risks)
        assert ours.attack.vulnerable_tuples == reference.attack.vulnerable_tuples


def test_measure_cache_ignores_parameters_the_measure_does_not_take(tiny_adult):
    session = Session(tiny_adult)
    js = session.measure("js")
    assert session.measure("js", bandwidth=0.9) is js
    assert session.measure("js", kernel="gaussian") is js
    assert session.stats.measure_builds == 1
    assert session.stats.measure_cache_hits == 2
    smoothed = session.measure("smoothed-js")
    assert session.measure("smoothed-js", bandwidth=0.9) is not smoothed
    assert session.stats.measure_builds == 3
