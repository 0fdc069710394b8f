"""Seeded randomized differential test of the tiled risk kernel.

``member_risks`` (and ``tuple_disclosure_risks`` on top of it) take one
group pass and then walk fixed row tiles, forming each tile's Omega
posteriors and distances.  The reference below is the flat formula the
kernel replaced, copied verbatim: one Omega pass over every member row, then
one ``measure.rowwise`` call over the whole batch (smoothed JS through its
two weight matmuls).  Tiles of 1, 2, 3, 7 and 64 rows split groups at every
possible place; the default tile is checked too.

The per-row risks must be bitwise equal for plain JS, for smoothed JS whose
weights are the identity (``p @ I == p``) and for the hierarchical EMD, and
equal to round-off (``rtol=1e-14``, ``atol=1e-15`` for risks near zero,
where JS cancels) for smoothed JS with real smoothing: the reference smooths
through BLAS matmuls, the measure through a fixed-order sum.
"""

import numpy as np
import pytest

import repro.inference.omega as omega
from repro.audit.engine import SkylineAuditEngine
from repro.data.adult import generate_adult
from repro.data.distance import attribute_distance_matrix
from repro.inference.exact import exact_posterior, group_sensitive_counts
from repro.knowledge.kernels import get_kernel
from repro.privacy.disclosure import member_risks, tuple_disclosure_risks
from repro.privacy.measures import HierarchicalEMD, JSDivergence, SmoothedJSDivergence

TILES = (1, 2, 3, 7, 64, omega.TILE_ROWS)
TABLE = generate_adult(120, seed=5)
DOMAIN = TABLE.sensitive_domain()
M = DOMAIN.size


def flat_omega_posterior(prior_rows, code_rows, offsets, sizes):
    """The flat Omega pass the tiled kernel replaced (verbatim)."""
    n_rows, m = prior_rows.shape
    n_groups = offsets.shape[0]
    group_of = np.repeat(np.arange(n_groups), sizes)

    counts = np.bincount(group_of * m + code_rows, minlength=n_groups * m)
    counts = counts.reshape(n_groups, m).astype(np.float64)
    column_sums = np.add.reduceat(prior_rows, offsets, axis=0)
    present = counts > 0.0
    positive_columns = present & (column_sums > 0.0)
    zero_columns = present & (column_sums <= 0.0)

    safe_sums = np.where(column_sums > 0.0, column_sums, 1.0)
    shares = np.where(positive_columns[group_of], prior_rows / safe_sums[group_of], 0.0)
    if zero_columns.any():
        uniform = (1.0 / sizes.astype(np.float64))[group_of]
        shares = np.where(zero_columns[group_of], uniform[:, None], shares)

    unnormalised = shares * counts[group_of]
    row_sums = unnormalised.sum(axis=1)
    good = row_sums > 0.0
    posterior = np.where(
        good[:, None], unnormalised / np.where(good, row_sums, 1.0)[:, None], 0.0
    )
    if not good.all():
        empirical = counts / sizes.astype(np.float64)[:, None]
        bad = ~good
        posterior[bad] = empirical[group_of[bad]]
    return posterior


def flat_smoothed_js(measure):
    """Smoothed JS as it was computed before the identity skip: two matmuls."""
    weights = get_kernel(measure.kernel)(measure.distance_matrix, measure.bandwidth)
    weights = weights / weights.sum(axis=1, keepdims=True)

    def rowwise(p, q):
        p_smooth = p @ weights.T
        q_smooth = q @ weights.T
        p_smooth /= p_smooth.sum(axis=1, keepdims=True)
        q_smooth /= q_smooth.sum(axis=1, keepdims=True)
        return JSDivergence().rowwise(p_smooth, q_smooth)

    return rowwise


def _measures():
    distances = attribute_distance_matrix(DOMAIN)
    leaf_order = [str(value) for value in DOMAIN.values.tolist()]
    identity = SmoothedJSDivergence(distance_matrix=distances, bandwidth=0.5)
    smoothing = SmoothedJSDivergence(distance_matrix=distances, bandwidth=0.9)
    emd = HierarchicalEMD(DOMAIN.attribute.taxonomy, leaf_order)
    return {
        # name: (measure, reference rowwise, bitwise?)
        "js": (JSDivergence(), JSDivergence().rowwise, True),
        "smoothed-identity": (identity, flat_smoothed_js(identity), True),
        "hierarchical-emd": (emd, emd.rowwise, True),
        "smoothed": (smoothing, flat_smoothed_js(smoothing), False),
    }


MEASURES = _measures()


def test_default_bandwidth_weights_are_the_identity():
    identity, _, _ = MEASURES["smoothed-identity"]
    smoothing, _, _ = MEASURES["smoothed"]
    assert np.array_equal(identity._smoothing_weights(), np.eye(M))
    assert identity._identity and not smoothing._identity


def _random_problem(rng):
    """Random priors and groups, with both Omega fallbacks planted."""
    n = int(rng.integers(5, 120))
    prior = rng.random((n, M))
    prior[rng.random((n, M)) < 0.4] = 0.0
    prior[prior.sum(axis=1) <= 0.0, 0] = 1.0
    codes = rng.integers(0, M, n)
    covered = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    groups, position = [], 0
    while position < covered.size:
        size = 1 if rng.random() < 0.25 else int(rng.integers(2, 12))  # singletons too
        groups.append(covered[position : position + size])
        position += size
    for group in groups[: max(1, len(groups) // 3)]:
        if group.size > 1 and rng.random() < 0.5:
            # Zero column sum: no member's prior allows a value the group holds.
            prior[group, codes[group[0]]] = 0.0
            prior[group, (codes[group[0]] + 1) % M] += 0.5
        else:
            # All-excluded row: its prior rules out every value the group holds.
            row = group[0]
            prior[row, np.unique(codes[group])] = 0.0
            if prior[row].sum() <= 0.0:
                spare = np.setdiff1d(np.arange(M), codes[group])
                prior[row, spare[0] if spare.size else 0] = 1.0
    prior /= prior.sum(axis=1, keepdims=True)
    return prior, codes, groups


def _layout(groups):
    members = np.concatenate(groups)
    offsets = np.cumsum([0] + [group.size for group in groups[:-1]], dtype=np.int64)
    return members, offsets


def _assert_matches(actual, expected, bitwise):
    if bitwise:
        assert actual.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_member_risks_match_the_flat_formula_for_every_tiling(name, monkeypatch):
    measure, reference, bitwise = MEASURES[name]
    rng = np.random.default_rng([20090415, len(name)])
    for _ in range(12):
        prior, codes, groups = _random_problem(rng)
        # Overlapping candidate groups are allowed: add a group reusing rows.
        groups = groups + [groups[0][: max(1, groups[0].size // 2)]]
        members, offsets = _layout(groups)
        sizes = np.diff(np.append(offsets, members.size))
        prior_rows = prior[members]
        posterior = flat_omega_posterior(prior_rows, codes[members], offsets, sizes)
        expected = reference(prior_rows, posterior)
        for tile in TILES:
            monkeypatch.setattr(omega, "TILE_ROWS", tile)
            actual = member_risks(prior, codes, members, offsets, measure)
            _assert_matches(actual, expected, bitwise)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_tuple_risks_keep_prior_distance_outside_every_group(name, monkeypatch):
    measure, reference, bitwise = MEASURES[name]
    rng = np.random.default_rng([7, len(name)])
    for _ in range(12):
        prior, codes, groups = _random_problem(rng)
        members, offsets = _layout(groups)
        sizes = np.diff(np.append(offsets, members.size))
        posterior = prior.copy()
        posterior[members] = flat_omega_posterior(prior[members], codes[members], offsets, sizes)
        expected = reference(prior, posterior)
        uncovered = np.setdiff1d(np.arange(prior.shape[0]), members)
        _assert_matches(expected[uncovered], reference(prior[uncovered], prior[uncovered]), bitwise)
        for tile in TILES:
            monkeypatch.setattr(omega, "TILE_ROWS", tile)
            empty = np.array([], dtype=np.int64)  # empty groups are skipped
            actual = tuple_disclosure_risks(prior, codes, [empty] + groups, measure)
            _assert_matches(actual, expected, bitwise)


def test_planted_fallbacks_are_exercised():
    """Both degenerate Omega arms fire in the random problems."""
    rng = np.random.default_rng([20090415, 2])
    zero_columns = excluded_rows = 0
    for _ in range(12):
        prior, codes, groups = _random_problem(rng)
        members, offsets = _layout(groups)
        for start, size in zip(offsets, np.diff(np.append(offsets, members.size))):
            rows = members[start : start + size]
            present = np.unique(codes[rows])
            zero_columns += int((prior[rows][:, present].sum(axis=0) <= 0.0).any())
            excluded_rows += int((prior[rows][:, present].sum(axis=1) <= 0.0).any())
    assert zero_columns and excluded_rows


@pytest.mark.parametrize("tile", [1, 3, omega.TILE_ROWS])
def test_exact_inference_keeps_its_per_group_program(tile, monkeypatch):
    monkeypatch.setattr(omega, "TILE_ROWS", tile)
    measure = JSDivergence()
    rng = np.random.default_rng(11)
    prior = rng.random((30, M))
    prior /= prior.sum(axis=1, keepdims=True)
    codes = rng.integers(0, M, 30)
    groups = [np.arange(0, 4), np.arange(4, 5), np.arange(5, 11), np.arange(20, 27)]
    posterior = prior.copy()
    for group in groups:
        posterior[group] = exact_posterior(prior[group], group_sensitive_counts(codes[group], M))
    expected = measure.rowwise(prior, posterior)
    actual = tuple_disclosure_risks(prior, codes, groups, measure, method="exact")
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tile", [5, omega.TILE_ROWS])
def test_threaded_skyline_audit_matches_the_flat_formula(tile, monkeypatch):
    """Audits run the kernel on the shared thread pool (``REPRO_JOBS`` sized)."""
    monkeypatch.setattr(omega, "TILE_ROWS", tile)
    skyline = [(0.2, 0.3), (0.4, 0.25), (0.6, 0.2)]
    measure, reference, _ = MEASURES["smoothed-identity"]
    rng = np.random.default_rng(3)
    order = rng.permutation(TABLE.n_rows)
    groups = np.split(order, np.sort(rng.choice(np.arange(1, TABLE.n_rows), 30, replace=False)))
    engine = SkylineAuditEngine(TABLE, skyline, measure=measure)
    report = engine.audit(groups)
    codes = TABLE.sensitive_codes()
    members, offsets = _layout(groups)
    sizes = np.diff(np.append(offsets, members.size))
    for entry, priors in zip(report.entries, engine.priors):
        prior = priors.matrix
        posterior = prior.copy()
        posterior[members] = flat_omega_posterior(prior[members], codes[members], offsets, sizes)
        assert entry.attack.risks.tobytes() == reference(prior, posterior).tobytes()


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_screened_verdicts_match_exact_verdicts(name, monkeypatch):
    """``member_risks(screen=t)``: every group verdict ``max <= t + 1e-12``
    is the exact one, and every value above ``t`` is bitwise the exact risk
    of the same tiling."""
    measure, _, _ = MEASURES[name]
    rng = np.random.default_rng([18, len(name)])
    screened_rows = total_rows = 0
    for _ in range(12):
        prior, codes, groups = _random_problem(rng)
        members, offsets = _layout(groups)
        for tile in TILES:
            monkeypatch.setattr(omega, "TILE_ROWS", tile)
            exact = member_risks(prior, codes, members, offsets, measure)
            for t in (0.0, 0.05, 0.2, 0.5, 1.0):
                screened = member_risks(prior, codes, members, offsets, measure, screen=t)
                hot = screened > t
                assert screened[hot].tobytes() == exact[hot].tobytes()
                assert (exact[~hot] <= t + 1e-12).all()
                screened_max = np.maximum.reduceat(screened, offsets)
                exact_max = np.maximum.reduceat(exact, offsets)
                np.testing.assert_array_equal(screened_max <= t + 1e-12, exact_max <= t + 1e-12)
                rejected = exact_max > t + 1e-12
                assert screened_max[rejected].tobytes() == exact_max[rejected].tobytes()
                screened_rows += int((screened != exact).sum())
                total_rows += members.size
    if name == "hierarchical-emd":
        assert screened_rows == 0  # measures without a bound stay exact
    else:
        assert 0 < screened_rows < total_rows


def _random_rows(rng, n):
    rows = rng.random((n, M)) ** 3
    rows[rng.random((n, M)) < 0.3] = 0.0
    rows[rows.sum(axis=1) <= 0.0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_a_rows_bits_never_depend_on_the_rows_sharing_its_call(name):
    """Row determinism: ``rowwise``, ``rowwise_screened`` and ``member_risks``
    give a row (or a group's rows) the same bits in a random 1, 2, 3, 7 or
    64-row call as in one call over every row, at the real tile size, and
    for groups that straddle a tile boundary."""
    measure, _, _ = MEASURES[name]
    rng = np.random.default_rng([22, len(name)])
    n = omega.TILE_ROWS + 904
    p = _random_rows(rng, n)
    # Posteriors at every distance from their priors, so the screen both
    # keeps bounds and computes exact values.
    mix = rng.random((n, 1)) ** 2
    q = (1.0 - mix) * p + mix * _random_rows(rng, n)
    thresholds = (0.01, 0.1)
    full = measure.rowwise(p, q)
    screened = [measure.rowwise_screened(p, q, t) for t in thresholds]
    for size in (1, 2, 3, 7, 64):
        for _ in range(6):
            rows = np.sort(rng.choice(n, size, replace=False))
            assert measure.rowwise(p[rows], q[rows]).tobytes() == full[rows].tobytes()
            for t, (values, exact) in zip(thresholds, screened):
                part, part_exact = measure.rowwise_screened(p[rows], q[rows], t)
                assert part.tobytes() == values[rows].tobytes()
                assert np.array_equal(part_exact, exact[rows])
    if name != "hierarchical-emd":
        assert all(0 < exact.sum() < n for _, exact in screened)

    codes = rng.integers(0, M, n)
    cuts = np.sort(rng.choice(np.arange(1, n), n // 6, replace=False))
    groups = np.split(rng.permutation(n), cuts)
    members, offsets = _layout(groups)
    ends = offsets + np.asarray([group.size for group in groups])
    straddling = np.flatnonzero((offsets < omega.TILE_ROWS) & (ends > omega.TILE_ROWS))
    assert straddling.size == 1
    calls = [dict(), *(dict(screen=t) for t in thresholds)]
    risks = [member_risks(p, codes, members, offsets, measure, **call) for call in calls]
    chosen = [straddling]
    chosen += [rng.choice(len(groups), size, replace=False) for size in (1, 2, 3, 7, 64)]
    for picked in chosen:
        picked = np.sort(picked)
        part_members, part_offsets = _layout([groups[g] for g in picked])
        positions = np.concatenate([np.arange(offsets[g], ends[g]) for g in picked])
        for call, full_risks in zip(calls, risks):
            part = member_risks(p, codes, part_members, part_offsets, measure, **call)
            assert part.tobytes() == full_risks[positions].tobytes()
