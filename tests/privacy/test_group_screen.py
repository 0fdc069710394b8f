"""Seeded randomized property test of the whole-group screen.

``member_risks(screen=t)`` decides a group from its Omega weights alone
when every value some member's prior allows is a value the group holds:
each member's ratios ``q_i / p_i`` then lie within the group's weight
spread, and the chord of the convex JS generator bounds every member's risk
(``measures.group_bound``).  A group whose bound is at most ``t -
GROUP_SCREEN_MARGIN`` is never tiled.

The property: every group the bound screens has an exact risk maximum (from
``member_risks`` without a screen) at or below its bound and below ``t``.
Groups run from 1 to 5,000 rows; their priors have zero entries, dead
columns (no member's prior allows the value), values some prior allows but
no member holds, values held that no prior allows, near-flat and far-from-
flat weights, and row totals off 1 within the tolerance ``PriorBeliefs``
accepts.  The same calls check that screened verdicts are the exact ones,
that every rejected group's maximum is bitwise the exact maximum, that a
group's values are the same bits in a call over a few of the groups, and
that the span counts the screened rows.  A final Mondrian case checks that a
table large enough for the screen to fire records the tree of exact
verdicts.
"""

import numpy as np
import pytest

from repro.anonymize.mondrian import MondrianAnonymizer
from repro.data.adult import generate_adult
from repro.data.distance import attribute_distance_matrix
from repro.inference.omega import group_pass
from repro.knowledge.prior import PriorBeliefs
from repro.obs.tracing import Tracer
from repro.privacy.disclosure import GROUP_SCREEN_MARGIN, member_risks
from repro.privacy import measures
from repro.privacy.measures import JSDivergence, SmoothedJSDivergence
from repro.privacy.models import BTPrivacy, CompositeModel, KAnonymity

DOMAIN = generate_adult(50, seed=5).sensitive_domain()
M = DOMAIN.size
DISTANCES = attribute_distance_matrix(DOMAIN)
MEASURES = {
    "js": JSDivergence(),
    "smoothed-identity": SmoothedJSDivergence(distance_matrix=DISTANCES, bandwidth=0.5),
    "smoothed-0.9": SmoothedJSDivergence(distance_matrix=DISTANCES, bandwidth=0.9),
}
THRESHOLDS = (0.001, 0.01, 0.05, 0.2, 0.5)


def _group(rng, size):
    """One group's prior rows and sensitive codes, with planted edge cases."""
    # The values some prior allows; the other columns are dead.
    support = rng.choice(M, int(rng.integers(1, min(M, size) + 1)), replace=False)
    base = np.zeros(M)
    base[support] = rng.dirichlet(np.full(support.size, 0.5))
    # Noise from near-flat weights (1e-4) to far from flat (3).
    noise = 10.0 ** rng.uniform(-4, 0.5)
    rows = base * np.exp(noise * rng.standard_normal((size, M)))
    rows[rng.random((size, M)) < 0.1] = 0.0  # zero entries in live columns
    empty = rows.sum(axis=1) <= 0.0
    rows[empty] = base
    rows /= rows.sum(axis=1, keepdims=True)
    # Every allowed value held at least once, the rest drawn from the base.
    codes = rng.permutation(np.append(support, rng.choice(M, size - support.size, p=base)))
    plant = rng.random()
    dead = np.flatnonzero(rows.sum(axis=0) <= 0.0)
    if plant < 0.15 and dead.size:
        # A value some prior allows but no member holds.
        rows[0, dead[0]] = 0.5
        rows[0] /= rows[0].sum()
    elif plant < 0.3 and dead.size:
        # A held value no member's prior allows.
        codes[0] = dead[0]
    return rows, codes


def _problem(rng, total_rows=20_000):
    sizes = [1, 2, 5000]
    while sum(sizes) < total_rows:
        sizes.append(int(np.exp(rng.uniform(0.0, np.log(5000)))))
    parts = [_group(rng, size) for size in rng.permutation(sizes)]
    matrix = np.concatenate([rows for rows, _ in parts])
    codes = np.concatenate([group_codes for _, group_codes in parts])
    # Row totals off 1 by up to 1e-9, as PriorBeliefs accepts.
    matrix *= 1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (matrix.shape[0], 1))
    size_array = np.array([rows.shape[0] for rows, _ in parts])
    offsets = np.cumsum(size_array) - size_array
    return PriorBeliefs(matrix=matrix), codes, np.arange(matrix.shape[0]), offsets


def _screen_spans(call):
    tracer = Tracer()
    with tracer.activate(), tracer.timed("check"):
        result = call()
    spans = [span for span in tracer.take_root().walk() if span.name == "privacy.risks"]
    return result, spans


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_every_screened_group_is_below_its_bound_and_t(name):
    measure = MEASURES[name]
    rng = np.random.default_rng([24, len(name)])
    screened_groups = total_groups = 0
    for _ in range(6):
        priors, codes, members, offsets = _problem(rng)
        exact = member_risks(priors, codes, members, offsets, measure)
        exact_max = np.maximum.reduceat(exact, offsets)
        groups = group_pass(priors.matrix, codes, members, offsets)
        bound = measure.group_bound(groups.weight_spread(), priors.row_total_range)
        for t in THRESHOLDS:
            screened = bound <= t - GROUP_SCREEN_MARGIN
            # 1e-15: the exact risk's own rounding where both are about 0.
            assert (exact_max[screened] <= bound[screened] + 1e-15).all()
            assert (exact_max[screened] <= t).all()

            risks, (span,) = _screen_spans(
                lambda: member_risks(priors, codes, members, offsets, measure, screen=t)
            )
            assert span.attributes["screened_rows"] == int(groups.sizes[screened].sum())
            assert span.attributes["rows"] == members.size
            assert span.attributes["exact_rows"] <= members.size - span.attributes["screened_rows"]
            rows = np.repeat(screened, groups.sizes)
            bounds = np.repeat(bound[screened], groups.sizes[screened])
            assert risks[rows].tobytes() == bounds.tobytes()
            hot = risks > t
            assert risks[hot].tobytes() == exact[hot].tobytes()
            screened_max = np.maximum.reduceat(risks, offsets)
            np.testing.assert_array_equal(screened_max <= t + 1e-12, exact_max <= t + 1e-12)
            rejected = exact_max > t + 1e-12
            assert screened_max[rejected].tobytes() == exact_max[rejected].tobytes()
            # A group's values never depend on the groups sharing its call.
            picked = np.sort(rng.choice(offsets.size, min(7, offsets.size), replace=False))
            ends = offsets + groups.sizes
            part_members = np.concatenate([members[offsets[g] : ends[g]] for g in picked])
            part_sizes = groups.sizes[picked]
            part = member_risks(
                priors, codes, part_members, np.cumsum(part_sizes) - part_sizes, measure, screen=t
            )
            positions = np.concatenate([np.arange(offsets[g], ends[g]) for g in picked])
            assert part.tobytes() == risks[positions].tobytes()
            screened_groups += int(screened.sum())
            total_groups += screened.size
        # Ineligible groups (absent-but-live or held-but-dead values) get no bound.
        assert np.isinf(groups.weight_spread()).any()
    assert 0 < screened_groups < total_groups


@pytest.mark.parametrize("total", [1.0, 1.0 - 1e-6, 1.0 + 1e-6])
def test_the_chord_bound_is_attained_by_two_point_rows(total):
    """The chord is tight: a row putting mass ``lam P`` on ratio ``L / P``
    and the rest on ``H / P`` reaches it, for any spread and row total."""
    for spread in (1.0 + 1e-6, 1.01, 1.5, 3.0, 40.0):
        low, high = 1.0 / spread, spread
        lam = (high - 1.0) / (high - low)
        p = np.array([lam, 1.0 - lam]) * total
        q = p * np.array([low, high]) / total
        assert q.sum() == pytest.approx(1.0, abs=1e-15)
        exact = JSDivergence().rowwise(p[None, :], q[None, :])[0]
        bound = measures._js_chord_bound(np.array([spread]), (total,))[0]
        # abs: the exact JS cancels to about 1e-16 near zero.
        assert bound == pytest.approx(exact, rel=1e-9, abs=1e-15)
        # A wider total range only loosens the bound.
        wider = measures._js_chord_bound(np.array([spread]), (total, 1.0 - 1e-5, 1.0 + 1e-5))
        assert wider[0] >= bound


def test_the_five_thousand_row_groups_and_singletons_screen():
    """The largest near-flat groups are the ones the screen exists for."""
    measure = MEASURES["smoothed-identity"]
    rng = np.random.default_rng(7)
    # Every member's prior is the group's own value distribution: flat weights.
    held = rng.multinomial(5000, rng.dirichlet(np.ones(M)))
    codes = np.repeat(np.arange(M), held)
    rows = np.tile(held / 5000.0, (5000, 1))
    point = np.zeros((1, M))
    point[0, 3] = 1.0
    priors = PriorBeliefs(matrix=np.concatenate([rows, point]))
    codes = np.append(codes, 3)
    offsets = np.array([0, 5000])
    risks, (span,) = _screen_spans(
        lambda: member_risks(priors, codes, np.arange(5001), offsets, measure, screen=0.01)
    )
    assert span.attributes["screened_rows"] == 5001 and span.attributes["tiles"] == 0
    assert (risks <= 0.01).all()


def test_negative_entries_or_raw_matrices_are_not_group_screened():
    """The bound assumes nonnegative rows with known totals: a prior with an
    entry below zero (within PriorBeliefs' tolerance), or a bare matrix,
    keeps every row on the per-row screen."""
    measure = MEASURES["js"]
    rng = np.random.default_rng(5)
    priors, codes, members, offsets = _problem(rng, total_rows=6000)
    matrix = priors.matrix.copy()
    dead = np.argwhere(matrix == 0.0)[0]
    matrix[tuple(dead)] = -1e-13
    for prior, screens in ((priors, True), (PriorBeliefs(matrix=matrix), False), (matrix, False)):
        _, (span,) = _screen_spans(
            lambda: member_risks(prior, codes, members, offsets, measure, screen=0.5)
        )
        assert (span.attributes["screened_rows"] > 0) == screens
    assert not PriorBeliefs(matrix=matrix).nonnegative and priors.nonnegative


class ExactVerdictBT(BTPrivacy):
    """(B,t)-privacy whose verdicts come from exact group risks."""

    def is_satisfied_batch(self, groups):
        return [bool(risk <= self.t + 1e-12) for risk in self.group_risks(groups)]


def _signature(node):
    if node.is_leaf:
        return ("leaf", node.indices.tolist(), node.depth, node.searched_size)
    split = node.split
    return ("node", split.attribute, split.threshold, split.inclusive, node.depth,
            _signature(node.left), _signature(node.right))


@pytest.mark.parametrize("smoothing", [0.5, 0.9])
def test_group_screened_mondrian_records_the_exact_verdict_tree(smoothing):
    table = generate_adult(2000, seed=11)
    trees = []
    screened_rows = []
    for model in (BTPrivacy, ExactVerdictBT):
        mondrian = MondrianAnonymizer(
            CompositeModel([KAnonymity(3), model(0.3, 0.2, smoothing_bandwidth=smoothing)])
        )
        tracer = Tracer()
        with tracer.activate(), tracer.timed("anonymize"):
            tree = mondrian.partition_tree(table)
        spans = [s for s in tracer.take_root().walk() if s.name == "privacy.risks"]
        screened_rows.append(sum(span.attributes["screened_rows"] for span in spans))
        trees.append((_signature(tree), mondrian.statistics))
    assert trees[0] == trees[1]
    assert trees[0][1].n_groups > 100
    assert screened_rows[0] > 0 and screened_rows[1] == 0
